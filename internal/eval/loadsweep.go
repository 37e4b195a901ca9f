package eval

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"sgxnet/internal/core"
	"sgxnet/internal/eval/load"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
	"sgxnet/internal/xcall"
)

// Open-loop load sweep: the tail-latency experiment the paper's
// closed-loop per-op averages cannot answer. Each point drives one of
// the application rigs (tor circuit gets, tlslite record exchanges,
// sdnctl route fetches) with a seeded arrival process on the modeled
// cycle clock, queues requests FIFO against the rig's metered service
// times, and reduces per-request latency (queue wait + service) to
// p50/p99/p999 plus SLO-violation counts.
//
// Axes beyond app × arrival × offered load:
//
//   - epc=R composes the PR-4 pager: the TLS engine runs on a small EPC
//     with a working set of R × the pageable budget, so R > 1.0 puts
//     EWB/ELDU traffic on the request path.
//   - xcall=B composes the PR-5 rings: the engine's crossings batch at
//     B, so the drain bill lands on whichever request triggers it — an
//     amortization-induced tail.
//   - +cpu / +cross / +epc add a Stress-SGX-style antagonist tenant as
//     a second arrival stream through the same FIFO server, stressing
//     compute, enclave transitions, or the shared EPC respectively.
//
// Rates are expressed as utilization rho against the point's own
// calibrated mean service time, so every cell sits at a controlled
// operating point regardless of how expensive its app is; the SLO is
// 20× mean service — generous at rho 0.5, routinely blown at 0.95.

// loadSweepCalReqs is the calibration prefix: requests served before
// the measured run to estimate mean service time (and warm caches,
// pagers, and rings so the run is steady-state).
const loadSweepCalReqs = 16

// loadSweepSLOFactor: SLO = factor × calibrated mean service.
const loadSweepSLOFactor = 20

// loadAntagonistUtil is the antagonist stream's offered utilization.
const loadAntagonistUtil = 0.25

// loadSweepN is the measured request count per app: tls and tor exceed
// the histogram's exact threshold (bucketed percentiles), sdn stays
// under it (exact percentiles) — both reduction regimes are golden-pinned.
var loadSweepN = map[string]int{"tor": 600, "tls": 768, "sdn": 480}

// loadCell is one grid cell.
type loadCell struct {
	app     string // tor | tls | sdn
	arrival string // poisson | bursty
	rho     float64
	compose string // "-", "epc=R", "xcall=B", "+cpu", "+cross", "+epc"
}

// loadSweepCells is the canonical grid: the base app × arrival × rho
// block, the pager and ring composition axes, and the antagonist
// interference points.
func loadSweepCells() []loadCell {
	var cells []loadCell
	for _, app := range []string{"tor", "tls", "sdn"} {
		for _, arr := range []string{"poisson", "bursty"} {
			for _, rho := range []float64{0.5, 0.8, 0.95} {
				cells = append(cells, loadCell{app, arr, rho, "-"})
			}
		}
	}
	for _, r := range []float64{0.5, 1.5} {
		cells = append(cells, loadCell{"tls", "poisson", 0.8, fmt.Sprintf("epc=%.1f", r)})
	}
	for _, b := range []int{4, 16} {
		cells = append(cells, loadCell{"tls", "poisson", 0.8, fmt.Sprintf("xcall=%d", b)})
	}
	cells = append(cells,
		loadCell{"tor", "poisson", 0.5, "+cpu"},
		loadCell{"tor", "poisson", 0.5, "+cross"},
		loadCell{"tls", "poisson", 0.5, "+epc"},
	)
	return cells
}

// LoadSweepPoint is one cell's reduction.
type LoadSweepPoint struct {
	App     string
	Arrival string
	Rho     float64
	Compose string
	N       int

	Rate     float64 // offered load, requests per Mcycle
	MeanSvc  uint64  // calibrated mean service, cycles
	SLO      uint64  // latency SLO, cycles
	P50      uint64
	P99      uint64
	P999     uint64
	Max      uint64
	Viol     uint64  // victim-stream SLO violations
	Util     float64 // realized server utilization (service / makespan)
	Bucketed bool    // percentile regime: bucketed vs exact
}

// LoadSweep runs every grid point as an independent scenario on the
// pool. Each point builds its own deployment, calibrates its own rate,
// and reduces its own histogram, so the merged table is byte-identical
// at any worker count.
func (r *Runner) LoadSweep() ([]LoadSweepPoint, error) {
	cells := loadSweepCells()
	return mapOrdered(r, len(cells), func(i int) (LoadSweepPoint, error) {
		return loadSweepPoint(r.trace, r.series, cells[i], loadSweepN[cells[i].app])
	})
}

// loadSeed derives a stable per-track schedule seed.
func loadSeed(track string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(track))
	return h.Sum64()
}

// buildLoadRigs constructs the victim rig (and antagonist, for "+"
// compositions) for a cell. A non-nil sampler wires the rig's internal
// subsystems — the TLS pager, the xcall rings — into the windowed
// series on the shared engine clock, so fault and drain samples land in
// the window of the request that caused them.
func buildLoadRigs(c loadCell, sm *series.Sampler, clk *series.Clock) (victim, antagonist load.Rig, err error) {
	switch c.app {
	case "tor":
		victim, err = load.NewTorRig(1, nil)
	case "tls":
		cfg := load.TLSRigConfig{}
		switch {
		case strings.HasPrefix(c.compose, "epc="):
			cfg.EPCRatio, err = strconv.ParseFloat(c.compose[len("epc="):], 64)
		case strings.HasPrefix(c.compose, "xcall="):
			var b int
			b, err = strconv.Atoi(c.compose[len("xcall="):])
			cfg.Xcall = &xcall.Config{Batch: b, SpinBudget: 64}
			if sm != nil {
				cfg.Xcall.Series = &xcall.SeriesConfig{Probe: sm, Clock: clk.Now}
			}
		case c.compose == "+epc":
			cfg.EPCRatio = 0.8
			cfg.Antagonist = true
		}
		if err != nil {
			return nil, nil, err
		}
		var tr *load.TLSRig
		tr, err = load.NewTLSRig(c.compose, cfg)
		if err == nil {
			if sm != nil {
				tr.SetSeries(sm, clk.Now)
			}
			victim = tr
			antagonist = tr.Antagonist()
		}
	case "sdn":
		victim, err = load.NewSDNRig()
	default:
		err = fmt.Errorf("eval: unknown load app %q", c.app)
	}
	if err != nil {
		return nil, nil, err
	}
	switch c.compose {
	case "+cpu":
		antagonist, err = load.NewCPUAntagonist(c.app)
	case "+cross":
		antagonist, err = load.NewCrossingAntagonist(c.app)
	}
	if err != nil {
		victim.Close()
		return nil, nil, err
	}
	return victim, antagonist, nil
}

// loadCalibrate serves the calibration prefix and returns the mean
// per-request service time plus the consumed tally.
func loadCalibrate(srv load.Server) (uint64, core.Tally, error) {
	var sum core.Tally
	for i := 0; i < loadSweepCalReqs; i++ {
		t, err := srv.Serve(i)
		if err != nil {
			return 0, sum, err
		}
		sum = sum.Add(t)
	}
	mean := sum.Cycles() / loadSweepCalReqs
	if mean < 1 {
		mean = 1
	}
	return mean, sum, nil
}

// loadSweepPoint measures one cell: build, calibrate, run, reduce. The
// n parameter is the victim request count (the grid uses loadSweepN;
// the trace golden pins a smaller point). With a series set attached,
// the cell samples arrivals/done/viol and queue gauges per window under
// its track prefix, and a shared Clock ties the rig internals' samples
// (pager faults, ring drains) to the engine's request timeline.
func loadSweepPoint(tr *obs.Trace, set *series.Set, c loadCell, n int) (LoadSweepPoint, error) {
	pt := LoadSweepPoint{App: c.app, Arrival: c.arrival, Rho: c.rho, Compose: c.compose, N: n}
	track := fmt.Sprintf("load-sweep/app=%s/arr=%s/rho=%.2f/compose=%s", c.app, c.arrival, c.rho, c.compose)
	sm := set.Sampler(track)
	clk := &series.Clock{}

	victim, antagonist, err := buildLoadRigs(c, sm, clk)
	if err != nil {
		return pt, err
	}
	defer victim.Close()
	if antagonist != nil {
		defer antagonist.Close()
	}

	meanSvc, cal, err := loadCalibrate(victim)
	if err != nil {
		return pt, err
	}
	pt.MeanSvc = meanSvc
	pt.Rate = c.rho * 1e6 / float64(meanSvc)
	pt.SLO = loadSweepSLOFactor * meanSvc

	spec := load.ArrivalSpec{Kind: load.Poisson, Rate: pt.Rate, N: n, Seed: loadSeed(track)}
	if c.arrival == "bursty" {
		spec.Kind = load.Bursty
		spec.Duty = 0.25
		spec.Period = 64 * meanSvc
		if spec.Period > load.MaxPeriod {
			spec.Period = load.MaxPeriod
		}
	}
	streams := []load.StreamConfig{{Name: c.app, Spec: spec, Srv: victim, SLO: pt.SLO}}

	if antagonist != nil {
		meanA, calA, err := loadCalibrate(antagonist)
		if err != nil {
			return pt, err
		}
		cal = cal.Add(calA)
		rateA := loadAntagonistUtil * 1e6 / float64(meanA)
		// Size the antagonist stream to cover the victim's arrival
		// horizon at its own rate, so the interference lasts the run.
		horizon := float64(n) * 1e6 / pt.Rate
		na := int(horizon * rateA / 1e6)
		if na < 1 {
			na = 1
		}
		if na > load.MaxRequests {
			na = load.MaxRequests
		}
		streams = append(streams, load.StreamConfig{
			Name: "antagonist",
			Spec: load.ArrivalSpec{Kind: load.Poisson, Rate: rateA, N: na, Seed: loadSeed(track + "/antagonist")},
			Srv:  antagonist,
		})
	}

	tr.RecordSpan(track, "load.calibrate", cal)
	res, err := load.RunSampled(tr, track, sm, clk, streams)
	if err != nil {
		return pt, err
	}
	v := res.Streams[0]
	pt.P50 = v.Hist.Quantile(0.50)
	pt.P99 = v.Hist.Quantile(0.99)
	pt.P999 = v.Hist.Quantile(0.999)
	pt.Max = v.Hist.Max()
	pt.Viol = v.Violations
	pt.Bucketed = v.Hist.Bucketed()
	if res.Makespan > 0 {
		pt.Util = float64(res.Service.Cycles()) / float64(res.Makespan)
	}

	// The calibration span plus the per-request spans account for every
	// cycle of the reported total, so trace attribution stays exact.
	tr.Total(track, "run.total", cal.Add(res.Service))
	if reg := tr.Registry(); reg != nil {
		reg.Add("load.sweep.requests", res.Combined.Count())
		reg.Add("load.sweep.violations", v.Violations)
	}
	return pt, nil
}

// RenderLoadSweep prints the sweep in its canonical order.
func RenderLoadSweep(w io.Writer, pts []LoadSweepPoint) {
	fmt.Fprintln(w, "Open-loop load sweep: latency percentiles in modeled cycles (wait + service)")
	fmt.Fprintf(w, "(rates calibrated to rho x mean service; SLO = %dx mean service; antagonists at %.0f%% utilization)\n",
		loadSweepSLOFactor, 100*loadAntagonistUtil)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tarrival\trho\tcompose\tn\treq/Mc\tsvc/req\tp50\tp99\tp999\tmax\tviol\tutil\tquant")
	for _, p := range pts {
		quant := "exact"
		if p.Bucketed {
			quant = "bucket"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%d\t%.2f\t%s\t%s\t%s\t%s\t%s\t%d\t%.2f\t%s\n",
			p.App, p.Arrival, p.Rho, p.Compose, p.N, p.Rate, fmtM(p.MeanSvc),
			fmtM(p.P50), fmtM(p.P99), fmtM(p.P999), fmtM(p.Max), p.Viol, p.Util, quant)
	}
	tw.Flush()
}
