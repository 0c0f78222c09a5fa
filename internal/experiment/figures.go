package experiment

import (
	"fmt"

	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/timeseries"
)

// Panel is one sub-figure: the same metric for browse and bid runs of
// one tier, exactly as the paper overlays the two curves per panel.
type Panel struct {
	// Title matches the paper's sub-figure caption, e.g. "Web+App. (VM)".
	Title string
	// Unit labels the Y axis.
	Unit string
	// Browse and Bid are the two overlaid curves. Single-run panels
	// (the saturation figure) may leave Bid nil.
	Browse, Bid *timeseries.Series
	// Overlays are additional curves drawn over the pair — the
	// saturation figure overlays the active-replica count on the
	// CPU/latency pairing.
	Overlays []*timeseries.Series
}

// Series lists the panel's non-nil curves in draw order.
func (p *Panel) Series() []*timeseries.Series {
	out := make([]*timeseries.Series, 0, 2+len(p.Overlays))
	for _, s := range []*timeseries.Series{p.Browse, p.Bid} {
		if s != nil {
			out = append(out, s)
		}
	}
	for _, s := range p.Overlays {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Figure is one of the paper's Figures 1-8.
type Figure struct {
	ID      int
	Caption string
	// Env tells which runs the figure needs.
	Env    Env
	Panels []Panel
}

// FigureSpec describes a figure before results exist.
type FigureSpec struct {
	ID       int
	Caption  string
	Env      Env
	Resource sysstat.Resource
}

// FigureSpecs lists all eight figures of the paper's evaluation.
func FigureSpecs() []FigureSpec {
	return []FigureSpec{
		{1, "CPU cycle demands by the web/application and database servers in VMs and the hypervisor (dom0)", Virtualized, sysstat.CPU},
		{2, "RAM demands by the web/application and database servers in VMs and the hypervisor", Virtualized, sysstat.RAM},
		{3, "Disk read and write by the web/application and database servers in VMs and the hypervisor", Virtualized, sysstat.Disk},
		{4, "Network data received and transmitted by the web/application and database servers in VMs and the hypervisor", Virtualized, sysstat.Net},
		{5, "CPU cycle demands by the web/application and database servers (physical machines)", Physical, sysstat.CPU},
		{6, "RAM demands by the web/application and database servers (physical machines)", Physical, sysstat.RAM},
		{7, "Disk read and write by the web/application and database servers (physical machines)", Physical, sysstat.Disk},
		{8, "Network data received and transmitted by the web/application and database servers (physical machines)", Physical, sysstat.Net},
	}
}

func unitFor(resource sysstat.Resource, env Env) string {
	prefix := "virtualized"
	if env == Physical {
		prefix = "physical"
	}
	switch resource {
	case sysstat.CPU:
		return prefix + " CPU cycles / 2s"
	case sysstat.RAM:
		return prefix + " used memory (MB)"
	case sysstat.Disk:
		return prefix + " data read & written (KB / 2s)"
	case sysstat.Net:
		return prefix + " data received & transmitted (KB / 2s)"
	}
	return ""
}

// normalizedTo clones s under name with values scaled so the peak is
// 1.0, letting series of different units share one axis.
func normalizedTo(s *timeseries.Series, name string) *timeseries.Series {
	c := s.Clone(name)
	c.Unit = "fraction of peak"
	if m := c.Max(); m > 0 {
		for i := range c.Values {
			c.Values[i] /= m
		}
	}
	return c
}

// BuildSaturationFigure assembles the Figure 9-style saturation panel
// from one run: the web tier's CPU demand paired with the per-window
// latency p95 on a shared peak-normalized axis, with the active
// web-replica count overlaid when the run had a cluster topology. The
// paper's Figures 1-8 show resources and the workload separately; this
// panel shows the causal pairing — CPU saturating, latency detaching
// from it, and (with an autoscaler) capacity arriving.
func BuildSaturationFigure(r *Result) (Figure, error) {
	p95 := r.Telemetry.ByName(telemetry.LatencyP95)
	if p95 == nil {
		return Figure{}, fmt.Errorf("experiment: saturation figure needs windowed telemetry")
	}
	cpu := r.Resource(TierWeb, sysstat.CPU)
	if cpu == nil {
		return Figure{}, fmt.Errorf("experiment: saturation figure needs a %q collector target", TierWeb)
	}
	panel := Panel{
		Title:  "Web CPU vs latency p95 (peak-normalized)",
		Unit:   "fraction of peak",
		Browse: normalizedTo(cpu, "web_cpu"),
		Bid:    normalizedTo(p95, "latency_p95"),
	}
	fig := Figure{
		ID:      9,
		Caption: "Web-tier CPU demand against per-window latency p95, with the active replica count where the run autoscaled",
		Env:     r.Config.Environment,
	}
	if rep := r.Telemetry.ByName(telemetry.Replicas); rep != nil && rep.Len() > 0 {
		panel.Overlays = append(panel.Overlays, normalizedTo(rep, "replicas"))
		fig.Panels = append(fig.Panels, Panel{
			Title:  "Active web replicas",
			Unit:   "replicas",
			Browse: rep.Clone("replicas"),
		})
	}
	fig.Panels = append([]Panel{panel}, fig.Panels...)
	return fig, nil
}

// BuildFigure assembles figure id from a (browse, bid) run pair of the
// right environment. The run environments must match the figure's.
func BuildFigure(id int, browse, bid *Result) (Figure, error) {
	var spec *FigureSpec
	for _, s := range FigureSpecs() {
		if s.ID == id {
			s := s
			spec = &s
			break
		}
	}
	if spec == nil {
		return Figure{}, fmt.Errorf("experiment: no figure %d", id)
	}
	for _, r := range []*Result{browse, bid} {
		if r.Config.Environment != spec.Env {
			return Figure{}, fmt.Errorf("experiment: figure %d needs %s runs, got %s",
				id, spec.Env, r.Config.Environment)
		}
	}
	fig := Figure{ID: id, Caption: spec.Caption, Env: spec.Env}
	type tierPanel struct{ tier, title string }
	panels := []tierPanel{
		{TierWeb, "Web+App."},
		{TierDB, "Mysql"},
	}
	suffix := " (VM)"
	if spec.Env == Physical {
		suffix = " (PM)"
	}
	for i := range panels {
		panels[i].title += suffix
	}
	if spec.Env == Virtualized {
		panels = append(panels, tierPanel{TierDom0, "Domain0"})
	}
	for _, p := range panels {
		b := browse.Resource(p.tier, spec.Resource).Clone("browse")
		d := bid.Resource(p.tier, spec.Resource).Clone("bid")
		fig.Panels = append(fig.Panels, Panel{
			Title:  p.title,
			Unit:   unitFor(spec.Resource, spec.Env),
			Browse: b,
			Bid:    d,
		})
	}
	return fig, nil
}
