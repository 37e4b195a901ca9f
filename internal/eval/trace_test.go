package eval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/xcall"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite the golden trace file")

// traceRun records the reference workload — the Table 4 row at the
// canonical 30 ASes, one Figure 3 point, one oversubscribed EPC sweep
// point (so the pager's spans and pager.* counters are pinned too),
// one switchless xcall sweep point (so the xcall.* probe kinds and
// ring counters are pinned), one small open-loop load sweep point
// (so the per-request RecordSpanAt spans, the load.calibrate record,
// and the load.sweep.* counters are pinned), and one small
// discrete-event scale sweep point (so the scale.native/scale.sgx
// spans and scale.sweep.* counters are pinned), and one small SGX-mode
// RA-TLS sweep point (so the ratls.cold/ratls.warm spans and the
// ratls.verify.* probe kinds are pinned) — into a fresh trace and
// returns its JSONL export. The registry is installed as the default
// probe so the metrics track exercises the instruction-kind counters.
func traceRun(t *testing.T, workers int) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.New(reg)
	core.SetDefaultProbe(reg)
	defer core.SetDefaultProbe(nil)
	r := NewRunner(workers)
	r.SetTrace(tr)
	if _, err := r.Table4At(30); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Figure3([]int{10}); err != nil {
		t.Fatal(err)
	}
	if _, err := epcSweepPoint(tr, nil, 2, 2.0, "clock"); err != nil {
		t.Fatal(err)
	}
	if _, err := xcallSweepPoint(tr, nil, "tls", &xcall.Config{Batch: 16, SpinBudget: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSweepPoint(tr, nil, loadCell{"tls", "poisson", 0.8, "xcall=16"}, 48); err != nil {
		t.Fatal(err)
	}
	if _, err := scaleSweepPoint(tr, nil, "sdn:ases=8,updates=2,rate=100,seed=42,edges=0-1|1-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ratlsSweepPoint(tr, nil, "sgx", 2, 1_000); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTraceGolden pins the reference trace byte for byte: timestamps
// come from the message clock and instruction tallies, never wall
// clock, so the export must not move between runs or machines.
func TestTraceGolden(t *testing.T) {
	got := traceRun(t, 1)
	path := filepath.Join("testdata", "trace.golden")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update-trace): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverges from %s (rerun with -update-trace if intended)", path)
	}
}

// TestTraceParallelSerialEquivalence is the tracing arm of the engine's
// determinism gate: the exported trace must be byte-identical whether
// the scenarios ran serially or fanned out across eight workers.
// Concurrent legs write to distinct tracks and the exporter orders by
// (track, seq), so interleaving cannot show through.
func TestTraceParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("records the reference workload twice; slow under -short")
	}
	serial := traceRun(t, 1)
	parallel := traceRun(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Error("-workers 8 trace diverges from -workers 1")
	}
}

// TestTraceAttribution is the acceptance criterion for the analyzer:
// the trace must be well-formed, and named spans must explain at least
// 95% of the independently reported run totals (the phase spans and
// the setup record partition the meters exactly, so in practice the
// residual is zero).
func TestTraceAttribution(t *testing.T) {
	events, err := obs.ReadJSONL(bytes.NewReader(traceRun(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.Check(events); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	a := obs.Analyze(events)
	if a.CoveredTotal.Cycles() == 0 {
		t.Fatal("no track reported a run total — nothing to attribute against")
	}
	if c := a.Coverage(); c < 0.95 {
		t.Errorf("spans attribute %.1f%% of reported totals, want >= 95%%", 100*c)
	}
	for _, tr := range a.Tracks {
		if tr.HasTotal {
			if res := tr.Residual(); res.SGXU != 0 || res.Normal != 0 {
				t.Logf("track %s residual %+v (allowed, but should stay small)", tr.Name, res)
			}
		}
	}
}

// TestTable1TracedMatchesUntraced checks that attaching a trace never
// perturbs the measured tallies — probes and spans observe, they do
// not charge.
func TestTable1TracedMatchesUntraced(t *testing.T) {
	plain, err := Table1Traced(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.NewRegistry())
	traced, err := Table1Traced(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("row count diverges: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("row %d diverges with tracing: %+v vs %+v", i, plain[i], traced[i])
		}
	}
	if len(tr.Events()) == 0 {
		t.Error("traced run recorded no events")
	}
}
