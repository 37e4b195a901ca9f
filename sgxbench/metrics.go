package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// def names one reported metric and its unit.
type def struct{ name, unit string }

// endToEnd is what a timed run reports, on every workload. The same
// names and units appear in BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
var endToEnd = []def{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"alloc_bytes_per_op", "B/op"},
	{"mem_peak_mb", "MB"},
	{"sgx_cycles_per_op", "cycles/op"},
}

// stageNames is the depth-8 chain layout, in chain order.
var stageNames = []string{"classify", "filter", "dpi", "nat", "reencrypt", "dpi2", "nat2", "reencrypt2"}

// imixSizes are the IMIX plaintext sizes.
var imixSizes = []int{64, 576, 1400}

// sectionFlags maps each transcript section to the sgxnet-tables flags
// that emit it alone, in canonical output order.
var sectionFlags = []struct {
	name  string
	flags []string
}{
	{"table1", []string{"-table", "1"}},
	{"table2", []string{"-table", "2"}},
	{"table3", []string{"-table", "3"}},
	{"table4", []string{"-table", "4"}},
	{"fig3", []string{"-fig", "3"}},
	{"ablations", []string{"-ablations"}},
	{"epc", []string{"-epc-sweep"}},
	{"xcall", []string{"-xcall-sweep"}},
	{"load", []string{"-load-sweep"}},
	{"scale", []string{"-scale-sweep"}},
	{"ratls", []string{"-ratls-sweep"}},
	{"chain", []string{"-chain-sweep"}},
}

// perLayer is what a traced run reports, on every workload.
var perLayer = func() []def {
	d := []def{
		{"core.ecall_ns", "ns"},
		{"core.sgx_u_per_op", "count/op"},
		{"core.normal_per_op", "count/op"},
		{"core.launch_ms", "ms"},
		{"core.pager_fault_us", "us"},
		{"core.pager_faults", "count"},
		{"ratls.warm_admit_ns", "ns"},
		{"ratls.cold_admit_us", "us"},
		{"ratls.reject_us", "us"},
		{"ratls.warm_admit_allocs", "count/op"},
		{"ratls.warm_admit_bytes", "B/op"},
		{"ratls.cold", "count/epoch"},
		{"ratls.warm", "count/epoch"},
		{"ratls.rejects", "count/epoch"},
		{"ratls.hit_rate", "ratio"},
		{"ratls.cold_time_share", "ratio"},
		{"ratls.cache_entries", "count"},
		{"nfchain.pkt_ns", "ns"},
		{"nfchain.flush_us", "us"},
	}
	for _, s := range stageNames {
		d = append(d, def{"nfchain.stage_ns." + s, "ns"})
	}
	d = append(d,
		def{"nfchain.rule_eval_ns", "ns"},
		def{"nfchain.rules_examined_per_hop", "count"},
		def{"nfchain.rule_cycle_share", "ratio"},
		def{"nfchain.hops_per_pkt", "count"},
		def{"nfchain.drop_frac", "ratio"},
		def{"nfchain.mirror_frac", "ratio"},
		def{"nfchain.alert_frac", "ratio"},
		def{"nfchain.native_cycles_per_op", "cycles/op"},
		def{"xcall.drains_per_pkt", "count"},
		def{"xcall.descs_per_drain", "count"},
		def{"xcall.fallbacks_per_pkt", "count"},
		def{"xcall.parks", "count/round"},
	)
	for _, s := range imixSizes {
		d = append(d, def{"tlslite.seal_ns." + strconv.Itoa(s), "ns"})
	}
	for _, s := range imixSizes {
		d = append(d, def{"tlslite.open_ns." + strconv.Itoa(s), "ns"})
	}
	d = append(d,
		def{"tlslite.allocs_per_record", "count"},
		def{"netsim.send_ns", "ns"},
		def{"netsim.egress_pkts_per_batch", "count"},
		def{"netsim.egress_bytes_per_pkt", "B"},
	)
	for _, s := range sectionFlags {
		d = append(d, def{"eval.section_s." + s.name, "s"})
	}
	d = append(d,
		def{"eval.runner_speedup_x", "x"},
		def{"des.events_per_s", "1/s"},
		def{"go.gc_cpu_frac", "ratio"},
		def{"trace_overhead_frac", "ratio"},
	)
	return d
}()

// unitOf returns a metric's declared unit.
func unitOf(name string) string {
	for _, l := range [][]def{endToEnd, perLayer} {
		for _, d := range l {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("sgxbench: undeclared metric " + name)
}

// set stores a metric under its declared unit.
func set(ms map[string]metric, name string, v float64) {
	ms[name] = metric{Value: v, Unit: unitOf(name)}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retainedMB is the memory an in-process workload keeps at the end of
// its measured phase, when every cache has filled: the live heap after a
// full GC, in MB. Peak resident memory would mostly measure how far the
// collector overshoots its goal under concurrent allocation, which
// varied by 11% from run to run on ratls-admit.
func retainedMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heap is a point-in-time read of the Go allocator's cumulative counters.
type heap struct{ bytes, objects uint64 }

func readHeap() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{ms.TotalAlloc, ms.Mallocs}
}

func (h heap) since(prev heap) heap { return heap{h.bytes - prev.bytes, h.objects - prev.objects} }

// cpuClock reads cumulative GC and total CPU seconds from runtime/metrics.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFrac is the GC share of CPU between two reads.
func gcFrac(a, b cpuClock) float64 { return ratio(b.gc-a.gc, b.total-a.total) }

// Set-up is timed over at least setupReps builds and at least
// setupBudget of building; setup_s is the median build.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// timeSetup builds the rig repeatedly and returns the median build time
// in seconds. Before each build, untimed, it calls discard (which drops
// the previous rig) and runs a full GC, so one build's garbage is not
// collected inside the next. The last build is the one measured.
func timeSetup(discard func(), build func() error) (float64, error) {
	var ds []float64
	var total time.Duration
	for len(ds) < setupReps || total < setupBudget {
		discard()
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	runtime.GC()
	return median(ds), nil
}

// timeReps calls fn reps times and returns the median duration.
func timeReps(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}
