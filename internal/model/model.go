// Package model implements the paper's stated future work: "design and
// apply formal methods to model the workload dynamics at both resource
// level and transaction level".
//
// Resource level: each collected demand series is fitted with a marginal
// distribution (best of normal/lognormal/exponential by KS distance) plus
// an AR(1) temporal dependence, which together can synthesize new traces
// with the same stationary statistics — the histogram/analytic workload
// models of the paper's references [7] and [13].
//
// Transaction level: each RUBiS interaction type gets a measured resource
// footprint (web cycles, DB cycles, transfer and storage bytes); combined
// with a mix's stationary state distribution this predicts aggregate tier
// demand for any composition and request rate without running the full
// simulation.
package model

import (
	"fmt"
	"sort"

	"vwchar/internal/experiment"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/stats"
	"vwchar/internal/sysstat"
	"vwchar/internal/timeseries"
)

// SeriesModel is the fitted resource-level model of one demand series.
type SeriesModel struct {
	// Name identifies the modeled series.
	Name string
	// Dist is the fitted marginal distribution.
	Dist stats.Distribution
	// KS is the Kolmogorov-Smirnov distance of the fit.
	KS float64
	// Phi is the lag-1 autocorrelation (AR(1) coefficient).
	Phi float64
	// Mean and Std are the sample moments.
	Mean, Std float64
}

// FitSeries fits the resource-level model to a series.
func FitSeries(s *timeseries.Series) (SeriesModel, error) {
	if s.Len() < 10 {
		return SeriesModel{}, fmt.Errorf("model: series %q too short (%d samples)", s.Name, s.Len())
	}
	sum := stats.Summarize(s.Values)
	dist, ks, err := stats.BestFit(s.Values)
	if err != nil {
		return SeriesModel{}, fmt.Errorf("model: series %q: %w", s.Name, err)
	}
	phi := stats.Autocorrelation(s.Values, 1)
	// Clamp into the stationary region.
	if phi > 0.99 {
		phi = 0.99
	}
	if phi < -0.99 {
		phi = -0.99
	}
	return SeriesModel{
		Name: s.Name,
		Dist: dist,
		KS:   ks,
		Phi:  phi,
		Mean: sum.Mean,
		Std:  sum.Std,
	}, nil
}

// String renders the model for reports.
func (m SeriesModel) String() string {
	return fmt.Sprintf("%s ~ %s(%s), KS=%.3f, AR1 phi=%.2f",
		m.Name, m.Dist.Name(), m.Dist.Params(), m.KS, m.Phi)
}

// WorkloadModel is the resource-level model of one experiment: one
// SeriesModel per tier and resource.
type WorkloadModel struct {
	Environment experiment.Env
	Mix         experiment.MixKind
	// Series is keyed "tier/resource", e.g. "webapp/cpu".
	Series map[string]SeriesModel
}

// resourceSeries enumerates the headline series of a result.
func resourceSeries(res *experiment.Result) map[string]*timeseries.Series {
	tiers := []string{experiment.TierWeb, experiment.TierDB}
	if res.Config.Environment == experiment.Virtualized {
		tiers = append(tiers, experiment.TierDom0)
	}
	out := make(map[string]*timeseries.Series)
	for _, tier := range tiers {
		for _, r := range sysstat.Resources() {
			out[tier+"/"+string(r)] = res.Resource(tier, r)
		}
	}
	return out
}

// Fit builds the workload model from a completed run. Series that no
// distribution family can describe (for example all-zero traces) are
// skipped; at least one series must fit.
func Fit(res *experiment.Result) (*WorkloadModel, error) {
	wm := &WorkloadModel{
		Environment: res.Config.Environment,
		Mix:         res.Config.Mix,
		Series:      make(map[string]SeriesModel),
	}
	for key, s := range resourceSeries(res) {
		m, err := FitSeries(s)
		if err != nil {
			continue
		}
		wm.Series[key] = m
	}
	if len(wm.Series) == 0 {
		return nil, fmt.Errorf("model: no series could be fitted")
	}
	return wm, nil
}

// Keys lists the fitted series keys in sorted order.
func (wm *WorkloadModel) Keys() []string {
	keys := make([]string, 0, len(wm.Series))
	for k := range wm.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TransactionFootprint is the measured mean resource demand of one
// interaction type.
type TransactionFootprint struct {
	Interaction rubis.Interaction
	// Samples is how many executions the footprint averages.
	Samples int
	// WebCycles and DBCycles are per-request compute demands.
	WebCycles, DBCycles float64
	// RequestBytes/ResponseBytes cross the client link; ToDB/FromDB
	// cross the inter-tier link.
	RequestBytes, ResponseBytes float64
	ToDB, FromDB                float64
	// DiskReadBytes/DiskWriteBytes are the DB tier's storage demand.
	DiskReadBytes, DiskWriteBytes float64
	// WriteFraction is 1 for read-write interactions.
	WriteFraction float64
}

// TransactionModel holds every interaction's footprint, indexed by
// kind.
type TransactionModel struct {
	Footprints [rubis.NumInteractions]TransactionFootprint
}

// FitTransactions measures each interaction's footprint by executing it
// samplesPer times against a fresh application instance.
func FitTransactions(cfg rubis.DatasetConfig, samplesPer int, seed uint64) (*TransactionModel, error) {
	if samplesPer < 1 {
		return nil, fmt.Errorf("model: need at least one sample per interaction")
	}
	src := rng.NewSource(seed)
	app, err := rubis.NewApp(cfg, src.Stream("model-dataset"))
	if err != nil {
		return nil, err
	}
	r := src.Stream("model-exec")
	params := rubis.DefaultCostParams()
	tm := new(TransactionModel)
	sess := &rubis.Session{UserID: 1, ItemID: 1, CategoryID: 0, RegionID: 0, ToUserID: 2}
	for _, kind := range rubis.AllInteractions() {
		fp := TransactionFootprint{Interaction: kind}
		for i := 0; i < samplesPer; i++ {
			// Refresh the session focus so footprints average across the
			// dataset rather than one hot row.
			sess.ItemID = int64(r.Intn(int(app.TotalItems())))
			sess.ToUserID = int64(r.Intn(int(app.TotalUsers())))
			sess.CategoryID = int64(r.Intn(cfg.Categories))
			sess.RegionID = int64(r.Intn(cfg.Regions))
			res, err := app.Execute(kind, sess, r, params)
			if err != nil {
				return nil, fmt.Errorf("model: %s: %w", kind, err)
			}
			fp.Samples++
			fp.WebCycles += res.WebCycles
			fp.DBCycles += res.TotalDBCycles()
			fp.RequestBytes += res.RequestBytes
			fp.ResponseBytes += res.ResponseBytes
			toDB, fromDB := res.DBTransferBytes()
			fp.ToDB += toDB
			fp.FromDB += fromDB
			for _, q := range res.Queries {
				fp.DiskReadBytes += q.Receipt.DiskReadBytes
				fp.DiskWriteBytes += q.Receipt.DiskWriteBytes
			}
			if res.IsWrite {
				fp.WriteFraction++
			}
		}
		n := float64(fp.Samples)
		fp.WebCycles /= n
		fp.DBCycles /= n
		fp.RequestBytes /= n
		fp.ResponseBytes /= n
		fp.ToDB /= n
		fp.FromDB /= n
		fp.DiskReadBytes /= n
		fp.DiskWriteBytes /= n
		fp.WriteFraction /= n
		tm.Footprints[kind] = fp
	}
	return tm, nil
}

// StationaryDistribution estimates the long-run interaction frequencies
// of a mix by walking its chain, indexed by kind.
func StationaryDistribution(m rubis.Model, steps int, seed uint64) [rubis.NumInteractions]float64 {
	r := rng.NewSource(seed).Stream("stationary")
	var counts [rubis.NumInteractions]int
	cur := m.StartState()
	for i := 0; i < steps; i++ {
		cur = m.NextInteraction(cur, r)
		counts[cur]++
	}
	var out [rubis.NumInteractions]float64
	for k, v := range counts {
		out[k] = float64(v) / float64(steps)
	}
	return out
}

// DemandPrediction is the transaction-level aggregate demand forecast.
type DemandPrediction struct {
	// RequestsPerSecond is the assumed arrival rate.
	RequestsPerSecond float64
	// WebCyclesPer2s and DBCyclesPer2s predict the tier CPU series means.
	WebCyclesPer2s, DBCyclesPer2s float64
	// WebNetKBPer2s and DBNetKBPer2s predict the tier network means.
	WebNetKBPer2s, DBNetKBPer2s float64
	// DBDiskKBPer2s predicts the DB tier's storage demand.
	DBDiskKBPer2s float64
	// WriteFraction predicts the read-write share.
	WriteFraction float64
}

// Predict composes footprints with a mix's stationary distribution at
// the given request rate, summing over kinds in index order so the
// result is bit-identical from call to call.
func (tm *TransactionModel) Predict(mix rubis.Model, reqPerSec float64, steps int, seed uint64) DemandPrediction {
	dist := StationaryDistribution(mix, steps, seed)
	var p DemandPrediction
	p.RequestsPerSecond = reqPerSec
	per2s := reqPerSec * 2
	for kind, freq := range dist {
		fp := &tm.Footprints[kind]
		w := freq * per2s
		p.WebCyclesPer2s += w * fp.WebCycles
		p.DBCyclesPer2s += w * fp.DBCycles
		p.WebNetKBPer2s += w * (fp.RequestBytes + fp.ResponseBytes + fp.ToDB + fp.FromDB) / 1024
		p.DBNetKBPer2s += w * (fp.ToDB + fp.FromDB) / 1024
		p.DBDiskKBPer2s += w * (fp.DiskReadBytes + fp.DiskWriteBytes) / 1024
		p.WriteFraction += freq * fp.WriteFraction
	}
	return p
}
