package sgxnet_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each
// iteration regenerates the corresponding experiment end to end, so
// ns/op is the cost of reproducing that artifact; the experiment's own
// result (instruction tallies) is reported through custom metrics.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"

	"sgxnet/internal/eval"
	"sgxnet/internal/eval/scale"
	"sgxnet/internal/topo"
	"sgxnet/internal/tor"

	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/sdnctl"
)

// benchWorkerCounts is the worker-count axis for the engine benches: 1
// and GOMAXPROCS. On a single-core runner the two collapse to the same
// count; emitting "workers=1" twice would make go test disambiguate the
// second as "workers=1#01", which then lands in BENCH_results.json as a
// duplicate key — so the collapsed case runs once.
func benchWorkerCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// benchLoop runs run once per iteration. If unit is set, metric(b,
// last) summarizes the final iteration's result as that custom metric.
func benchLoop[T any](b *testing.B, run func() (T, error), unit string, metric func(b *testing.B, last T) float64) {
	b.ReportAllocs()
	b.ResetTimer()
	var last T
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	if unit != "" {
		b.ReportMetric(metric(b, last), unit)
	}
}

// benchSweep is benchLoop over one evaluation-engine sweep, on a Runner
// of each benchWorkerCounts() size, as the sub-benchmarks "workers=N".
func benchSweep[T any](b *testing.B, run func(*eval.Runner) (T, error), unit string, metric func(b *testing.B, last T) float64) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := eval.NewRunner(workers)
			benchLoop(b, func() (T, error) { return run(r) }, unit, metric)
		})
	}
}

// wantLen fails a run whose result does not have n entries.
func wantLen[T any](s []T, err error, n int) ([]T, error) {
	if err == nil && len(s) != n {
		err = fmt.Errorf("got %d entries, want %d", len(s), n)
	}
	return s, err
}

// BenchmarkFullSweep runs the Figure 3 sweep — the transcript's dominant
// workload — through the evaluation engine at worker counts 1 and
// GOMAXPROCS. The ratio of the two ns/op numbers is the engine's
// speedup on this machine (1× on a single-core runner, where the
// caller-runs pool degrades to serial by design); BENCH_results.json
// records both.
func BenchmarkFullSweep(b *testing.B) {
	benchSweep(b, func(r *eval.Runner) ([]eval.Figure3Point, error) {
		pts, err := r.Figure3(nil)
		return wantLen(pts, err, 10)
	}, "", nil)
}

// BenchmarkTable1RemoteAttestation regenerates Table 1 (remote
// attestation instruction counts, with and without DH).
func BenchmarkTable1RemoteAttestation(b *testing.B) {
	for _, dh := range []struct {
		name string
		dh   bool
	}{{"noDH", false}, {"DH", true}} {
		b.Run(dh.name, func(b *testing.B) {
			benchLoop(b, func() ([]eval.Table1Row, error) { return eval.Table1Traced(nil) }, "target-normal-inst",
				func(_ *testing.B, rows []eval.Table1Row) float64 {
					var target uint64
					for _, r := range rows {
						if r.Role == "target" && r.WithDH == dh.dh {
							target = r.Tally.Normal
						}
					}
					return float64(target)
				})
		})
	}
}

// BenchmarkTable2PacketIO regenerates Table 2 (enclave packet I/O).
func BenchmarkTable2PacketIO(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		n      int
		crypto bool
	}{
		{"1pkt-plain", 1, false},
		{"1pkt-crypto", 1, true},
		{"100pkt-plain", 100, false},
		{"100pkt-crypto", 100, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchLoop(b, func() (core.Tally, error) { return eval.MeasureSendTraced(nil, "", cfg.n, cfg.crypto) }, "normal-inst",
				func(_ *testing.B, t core.Tally) float64 { return float64(t.Normal) })
		})
	}
}

// BenchmarkTable3AttestationCounts regenerates Table 3 (attestations per
// design).
func BenchmarkTable3AttestationCounts(b *testing.B) {
	benchLoop(b, func() ([]eval.Table3Row, error) {
		rows, err := eval.Table3Traced(nil)
		return wantLen(rows, err, 4)
	}, "", nil)
}

// BenchmarkTable4InterDomain regenerates Table 4 (30-AS SDN routing,
// native and SGX).
func BenchmarkTable4InterDomain(b *testing.B) {
	tp, err := topo.Random(topo.Config{N: 30, Seed: eval.CanonicalSeed, PrefJitter: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		run  func(*topo.Topology) (*sdnctl.RunReport, error)
	}{{"native", sdnctl.RunNative}, {"sgx", sdnctl.RunSGX}} {
		b.Run(leg.name, func(b *testing.B) {
			benchLoop(b, func() (*sdnctl.RunReport, error) { return leg.run(tp) }, "normal-inst",
				func(_ *testing.B, rep *sdnctl.RunReport) float64 { return float64(rep.InterDomain.Normal) })
		})
	}
}

// BenchmarkFigure3Scaling regenerates the Figure 3 sweep (a short one:
// the full 5–50 sweep runs via cmd/sgxnet-tables -fig 3).
func BenchmarkFigure3Scaling(b *testing.B) {
	benchLoop(b, func() ([]eval.Figure3Point, error) {
		pts, err := eval.NewRunner(0).Figure3([]int{5, 15, 25})
		return wantLen(pts, err, 3)
	}, "", nil)
}

// BenchmarkEPCSweep regenerates the EPC oversubscription sweep — the
// multi-tenant paging experiment — at worker counts 1 and GOMAXPROCS,
// and reports the worst-case (4 tenants, ratio 2.0, CLOCK) per-op
// overhead as a custom metric so BENCH_results.json tracks the paging
// penalty over time.
func BenchmarkEPCSweep(b *testing.B) {
	benchSweep(b, (*eval.Runner).EPCSweep, "worst-overhead-x", func(_ *testing.B, pts []eval.EPCSweepPoint) float64 {
		var worst float64
		for _, p := range pts {
			worst = max(worst, p.Overhead)
		}
		return worst
	})
}

// BenchmarkXcallSweep regenerates the switchless-call ablation at
// worker counts 1 and GOMAXPROCS, and reports the minimum speedup over
// the batch ≥16 points as a custom metric — the acceptance bar is 2×,
// so BENCH_results.json tracks how much headroom the ring model keeps.
func BenchmarkXcallSweep(b *testing.B) {
	benchSweep(b, (*eval.Runner).XcallSweep, "min-speedup-x", func(_ *testing.B, pts []eval.XcallSweepPoint) float64 {
		var minSpeedup float64
		for _, p := range pts {
			if p.Mode != "switchless" || p.Batch < 16 {
				continue
			}
			if minSpeedup == 0 || p.Speedup < minSpeedup {
				minSpeedup = p.Speedup
			}
		}
		return minSpeedup
	})
}

// BenchmarkLoadSweep regenerates the open-loop load sweep at worker
// counts 1 and GOMAXPROCS, and reports the worst tail amplification
// (max p999/p50 across the grid) as a custom metric — the number that
// would regress first if a model change put hidden cost spikes on a
// request path.
func BenchmarkLoadSweep(b *testing.B) {
	benchSweep(b, (*eval.Runner).LoadSweep, "worst-p999/p50-x", func(_ *testing.B, pts []eval.LoadSweepPoint) float64 {
		var worst float64
		for _, p := range pts {
			if p.P50 != 0 {
				worst = max(worst, float64(p.P999)/float64(p.P50))
			}
		}
		return worst
	})
}

// BenchmarkScaleSweep measures the discrete-event kernel. The sdn-1024
// sub-bench drives the 1024-AS Figure 3 cell alone — its ns/op is the
// cost of simulating 4096 route updates through a serialized
// controller, and events/sec is the kernel's raw throughput at that
// cell. The workers=N sub-benches run the full canonical grid (up to
// 4096 ASes and a million-flow Tor cell) through the evaluation
// engine; both land in BENCH_results.json so kernel regressions are
// diffable.
func BenchmarkScaleSweep(b *testing.B) {
	b.Run("sdn-1024", func(b *testing.B) {
		s, err := scale.ParseSpec("sdn:ases=1024,updates=4,rate=100,seed=42")
		if err != nil {
			b.Fatal(err)
		}
		benchLoop(b, func() (scale.Result, error) { return scale.Run(s) }, "events/sec",
			func(b *testing.B, res scale.Result) float64 {
				return float64(res.Events) * float64(b.N) / b.Elapsed().Seconds()
			})
	})
	// Every iteration simulates the same events, so b.N times the last
	// one's count is the total.
	benchSweep(b, (*eval.Runner).ScaleSweep, "events/sec", func(b *testing.B, pts []eval.ScaleSweepPoint) float64 {
		var events uint64
		for _, p := range pts {
			events += p.Events
		}
		return float64(events) * float64(b.N) / b.Elapsed().Seconds()
	})
}

// BenchmarkRATLSSweep regenerates the attested-channel sweep at worker
// counts 1 and GOMAXPROCS, and reports the worst warm/cold amortization
// ratio across the 10^6-client cells as a custom metric — the number the
// 5% acceptance bar bounds, so BENCH_results.json tracks how much
// headroom the verification cache keeps.
func BenchmarkRATLSSweep(b *testing.B) {
	benchSweep(b, (*eval.Runner).RATLSSweep, "worst-warm/cold-ratio", func(_ *testing.B, pts []eval.RATLSSweepPoint) float64 {
		var worst float64
		for _, p := range pts {
			if p.Clients == 1_000_000 {
				worst = max(worst, p.WarmOverCold)
			}
		}
		return worst
	})
}

// BenchmarkChainSweep regenerates the trusted NF-chain sweep at worker
// counts 1 and GOMAXPROCS, and reports the worst SGX/native per-hop
// cycle ratio at batch 64 as a custom metric — the composition tax the
// chain-sweep acceptance bar bounds. A regression here means either the
// xcall amortization or the in-enclave rule engine got more expensive
// relative to the native pipeline.
func BenchmarkChainSweep(b *testing.B) {
	benchSweep(b, (*eval.Runner).ChainSweep, "worst-sgx/native-hop-ratio", func(_ *testing.B, pts []eval.ChainSweepPoint) float64 {
		native := map[[2]int]uint64{}
		for _, p := range pts {
			if p.Mode == "native" {
				native[[2]int{p.Depth, p.Rules}] = p.PerHop
			}
		}
		var worst float64
		for _, p := range pts {
			if p.Mode != "sgx" || p.Batch != 64 {
				continue
			}
			if n := native[[2]int{p.Depth, p.Rules}]; n > 0 {
				worst = max(worst, float64(p.PerHop)/float64(n))
			}
		}
		return worst
	})
}

// BenchmarkAblationBatching sweeps enclave I/O batch sizes.
func BenchmarkAblationBatching(b *testing.B) {
	benchLoop(b, func() ([]eval.BatchSweepPoint, error) { return eval.AblationBatchSweep(nil, []int{1, 10, 100}) }, "batched-normal-inst/pkt",
		func(_ *testing.B, pts []eval.BatchSweepPoint) float64 { return float64(pts[len(pts)-1].PerPacket) })
}

// BenchmarkAblationSMPC runs the GMW private route comparison — the
// expensive alternative the SGX design replaces (§3.1).
func BenchmarkAblationSMPC(b *testing.B) {
	benchLoop(b, eval.AblationSMPC, "smpc-vs-sgx-ratio",
		func(_ *testing.B, c *eval.SMPCComparison) float64 { return c.CostRatio })
}

// BenchmarkAblationDHTLookup measures directory-less membership lookups.
func BenchmarkAblationDHTLookup(b *testing.B) {
	benchLoop(b, func() ([]eval.DHTSweepPoint, error) { return eval.AblationDHTLookups([]int{64}) }, "avg-hops",
		func(_ *testing.B, pts []eval.DHTSweepPoint) float64 { return pts[0].AvgHops })
}

// BenchmarkAblationTorCircuit measures end-to-end circuit build + fetch
// through each deployment mode.
func BenchmarkAblationTorCircuit(b *testing.B) {
	for _, mode := range []tor.DeployMode{tor.ModeBaseline, tor.ModeSGXORs} {
		b.Run(mode.String(), func(b *testing.B) {
			tn, err := tor.Deploy(tor.NetworkConfig{Mode: mode, Authorities: 3, Relays: 3, Exits: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			client, err := tn.NewClient("bench-client", 1)
			if err != nil {
				b.Fatal(err)
			}
			consensus, err := tn.Discover(client)
			if err != nil {
				b.Fatal(err)
			}
			benchLoop(b, func() (struct{}, error) {
				path, err := client.PickPath(consensus, 3)
				if err != nil {
					return struct{}{}, err
				}
				circ, err := client.BuildCircuit(path)
				if err != nil {
					return struct{}{}, err
				}
				defer circ.Close()
				_, err = circ.Get(tor.WebHost+"|"+tor.WebService, []byte("bench"))
				return struct{}{}, err
			}, "", nil)
		})
	}
}

// BenchmarkAblationRouteCompute isolates the centralized path
// computation from the deployment costs.
func BenchmarkAblationRouteCompute(b *testing.B) {
	for _, n := range []int{10, 30, 50} {
		b.Run(bname(n), func(b *testing.B) {
			tp, err := topo.Random(topo.Config{N: n, Seed: eval.CanonicalSeed, PrefJitter: true})
			if err != nil {
				b.Fatal(err)
			}
			benchLoop(b, func() (bgp.Stats, error) {
				_, st := bgp.ComputeAll(tp)
				return st, nil
			}, "route-updates", func(_ *testing.B, st bgp.Stats) float64 { return float64(st.Updates) })
		})
	}
}

func bname(n int) string {
	return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
