package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/experiment"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/tiers"
)

// featureSweepGoldenSHA256 pins the WriteTable bytes of
// featureSweepSpec: every scalar each optional feature reports, by
// name, order and value, on a sweep small enough for tier-1. The
// full-scale sweep golden covers the paper grid only.
//
// If a PR intentionally changes model behaviour, regenerate with
//
//	go test ./internal/runner -run TestFeatureSweepMatchesGoldenHash -v
//
// and update the constant alongside an explanation of what moved.
const featureSweepGoldenSHA256 = "b7282f9b72eb46d89e2247dfd90c25652fbfd9fb5a706738a4c1036eb27a2945"

// featureConfig is a 20-second bidding run on a tiny dataset. Every
// point pins one DatasetSeed, so the sweep populates one dataset.
func featureConfig(env experiment.Env) experiment.Config {
	cfg := experiment.DefaultConfig(env, experiment.MixBidding)
	cfg.Clients = 20
	cfg.Duration = 20 * sim.Second
	cfg.DatasetSeed = 5
	cfg.Dataset = rubis.DatasetConfig{
		Regions: 5, Categories: 5, Users: 200,
		ActiveItems: 80, OldItems: 120,
		BidsPerItem: 2, CommentsPerUser: 1, BufferPages: 64,
	}
	return cfg
}

// featureFlash is a short open-loop flash crowd: an 8x spike at t=6 s.
func featureFlash() *load.Spec {
	return &load.Spec{
		Kind: load.Spike, Rate: 6, SpikeFactor: 8,
		SpikeAt: 6, SpikeRamp: 2, SpikeHold: 6,
		SessionMean: 4, AbandonAfterSeconds: 2,
	}
}

// featureSweepSpec covers every scalar-reporting feature: the paper
// pair, physical, an open-loop spike, resilience alone, and a
// 2-machine autoscaled cluster under the flash crowd with cache,
// queue, web/DB crashes, the hazard, a breaker and brownout, so
// sessions, scaling, request outcomes, degradation, cache and queue
// scalars all appear on one point.
func featureSweepSpec() SweepSpec {
	paper := featureConfig(experiment.Virtualized)
	phys := featureConfig(experiment.Physical)

	spike := featureConfig(experiment.Virtualized)
	spike.Load = featureFlash()

	resil := featureConfig(experiment.Virtualized)
	resil.Resilience = faults.DefaultResilience()

	cluster := featureConfig(experiment.Virtualized)
	cluster.Topology = &tiers.Topology{
		WebReplicas:    2,
		MaxWebReplicas: 3,
		DBReadReplicas: 1,
		Machines:       2,
		LB:             tiers.LBJoinShortestQueue,
		Autoscaler: &tiers.AutoscalerSpec{
			SLOMillis: 5, ScaleUpWindows: 1, ScaleDownWindows: 3,
			CooldownSeconds: 4, BootSeconds: 2,
		},
	}
	cluster.Load = featureFlash()
	cacheSpec, queueSpec := cachetier.DefaultCacheSpec(), cachetier.DefaultQueueSpec()
	cluster.Cache, cluster.Queue = &cacheSpec, &queueSpec
	cluster.Faults = &faults.Schedule{
		WebCrash: &faults.Component{AtSeconds: 4, MTTRSeconds: 3, Targets: []int{0}},
		DBCrash:  &faults.Component{AtSeconds: 8, Targets: []int{0}},
		Hazard:   &faults.HazardSpec{UtilThreshold: 0.01, CrashProb: 0.6, MTTRSeconds: 3, MaxCrashes: 1},
	}
	cluster.Resilience = faults.DefaultResilience()
	cluster.Resilience.FailoverDetectSeconds = 2
	cluster.Resilience.Breaker = &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 16, OpenMillis: 500}
	cluster.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.005, ExitUtil: 0.001, DropFraction: 0.5, MaxLevel: 2}

	return SweepSpec{
		Points: []Point{
			{Name: "paper-pair", Config: paper},
			{Name: "physical", Config: phys},
			{Name: "open-spike", Config: spike},
			{Name: "resilience", Config: resil},
			{Name: "cluster-chaos", Config: cluster},
		},
		Replications: 2,
		RootSeed:     23,
		Workers:      4,
	}
}

// TestFeatureSweepMatchesGoldenHash runs featureSweepSpec and compares
// the SHA-256 of its WriteTable output with the pinned constant.
func TestFeatureSweepMatchesGoldenHash(t *testing.T) {
	sr, err := Run(featureSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sr.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if got != featureSweepGoldenSHA256 {
		t.Errorf("feature sweep table hash %s, want %s\n%s", got, featureSweepGoldenSHA256, buf.String())
	}
}
