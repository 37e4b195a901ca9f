package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// testBin holds sgxnet-tables and sgxnet-trace built from the enclosing
// checkout; TestMain builds them once.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sgxbench-bin")
	if err != nil {
		panic(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/sgxnet-tables", "./cmd/sgxnet-trace")
	cmd.Dir = ".."
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building the sgxnet commands: " + err.Error())
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 7, seconds: 0.001, root: "..", bin: testBin, out: t.TempDir(), workers: runtime.NumCPU()}
}

// mustRun runs one workload briefly and requires a correct result with
// every declared metric.
func mustRun(t *testing.T, cfg config) result {
	t.Helper()
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", cfg.workload, r.Correct, r.Failed, r.Attempted)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", cfg.workload, len(r.Metrics), len(want))
	}
	return r
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, have)
		}
	}
}

func TestSilentZeroFails(t *testing.T) {
	var ck checks
	if ck.ok() {
		t.Fatal("a run that checked nothing must not pass")
	}
	ck.op(10, 0)
	if !ck.ok() {
		t.Fatal("10 correct ops must pass")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "Chain.Process", Parent: -1, Start: 0, End: 100},
		{Name: "stage.a", Parent: 0, Start: 10, End: 30},
		{Name: "stage.b", Parent: 0, Start: 40, End: 90},
	}}
	lt := selfTimes(tr)
	if got := lt["Chain.Process"]; got.total != 100 || got.own != 30 {
		t.Errorf("Chain.Process total/self %d/%d, want 100/30", got.total, got.own)
	}
	if got := lt["stage.b"]; got.own != 50 {
		t.Errorf("stage.b self %d, want 50", got.own)
	}
}

func TestGenerators(t *testing.T) {
	a, b := genRATLS(3), genRATLS(3)
	for i := range a.epoch {
		if a.epoch[i] != b.epoch[i] {
			t.Fatalf("ratls inputs differ at %d for one seed", i)
		}
	}
	if a.lookalikes != ratlsEpoch/ratlsLookalike {
		t.Errorf("%d look-alikes per epoch, want %d", a.lookalikes, ratlsEpoch/ratlsLookalike)
	}
	c, err := genChain(3)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := genChain(3)
	if c.rules != d.rules || len(c.pkts) != chainRound {
		t.Fatal("chain inputs differ for one seed")
	}
	for i := range c.pkts {
		if string(c.pkts[i].Payload) != string(d.pkts[i].Payload) || c.pkts[i].Flow != d.pkts[i].Flow {
			t.Fatalf("chain packet %d differs for one seed", i)
		}
	}
	if len(c.denyPos) != chainFlows/chainDenyMod {
		t.Errorf("%d deny rules, want %d", len(c.denyPos), chainFlows/chainDenyMod)
	}
}

func TestRATLSAdmit(t *testing.T) {
	mustRun(t, testConfig(t, "ratls-admit"))
}

// TestRATLSExactRepeat: the modeled tally and verifier counts of an
// epoch repeat exactly across rigs at one seed and across driver
// goroutine counts.
func TestRATLSExactRepeat(t *testing.T) {
	in := genRATLS(11)
	var tallies []any
	for _, g := range []int{1, runtime.NumCPU(), 3} {
		rig, err := newRATLSRig(11, in)
		if err != nil {
			t.Fatal(err)
		}
		var ck checks
		runs := rig.epochs(&ck, in, partition(in, g), 0)
		if !ck.ok() {
			t.Fatalf("g=%d: %v", g, ck.notes)
		}
		tallies = append(tallies, runs[0].tally, rig.v.Stats().Cold, rig.v.Stats().Warm, rig.v.Stats().Rejects)
	}
	for i := 4; i < len(tallies); i++ {
		if tallies[i] != tallies[i%4] {
			t.Fatalf("modeled counts differ between runs: %v", tallies)
		}
	}
}

// TestRATLSLookalikeMarkedAcceptFails: a look-alike the verdict table
// expects to be admitted must count as a wrong outcome.
func TestRATLSLookalikeMarkedAcceptFails(t *testing.T) {
	in := genRATLS(5)
	in.expectAccept[ratlsLookalike-1] = true
	rig, err := newRATLSRig(5, in)
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	rig.epochs(&ck, in, partition(in, 2), 0)
	if ck.failed != 1 || ck.ok() {
		t.Fatalf("failed=%d ok=%v, want exactly the mislabelled look-alike to fail", ck.failed, ck.ok())
	}
}

func TestChainIMIX(t *testing.T) {
	mustRun(t, testConfig(t, "nfchain-imix"))
}

// TestChainExactRepeat: two rigs at one seed charge identical modeled
// tallies and count identical per-layer events.
func TestChainExactRepeat(t *testing.T) {
	in, err := genChain(9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nativeReference(in)
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for i := 0; i < 2; i++ {
		st, err := newStages(nil)
		if err != nil {
			t.Fatal(err)
		}
		rig, err := newChainRig(9, in, st)
		if err != nil {
			t.Fatal(err)
		}
		var ck checks
		runs, err := rig.rounds(&ck, in, ref, 0, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rig.verifyEgress(&ck, ref, len(runs))
		if !ck.ok() {
			t.Fatal(ck.notes)
		}
		got = append(got, runs[0].tally, runs[1].tally, rig.chain.Stats(), rig.chain.XcallStats())
		rig.close()
	}
	for i := 0; i < 4; i++ {
		if got[i] != got[i+4] {
			t.Fatalf("modeled counts differ between runs: %v vs %v", got[i], got[i+4])
		}
	}
	if got[0] != got[1] {
		t.Fatalf("round tallies differ within a run: %v vs %v", got[0], got[1])
	}
}

// TestChainMiscountedSinkFails: a sink that miscounts one egress packet
// must count as a wrong outcome.
func TestChainMiscountedSinkFails(t *testing.T) {
	in, err := genChain(4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nativeReference(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := newChainRig(4, in, st)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	var ck checks
	runs, err := rig.rounds(&ck, in, ref, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ref.want {
		if w.delivered > 0 { // lose one packet's egress
			rig.sink.perPkt[i]--
			rig.sink.pkts--
			break
		}
	}
	rig.verifyEgress(&ck, ref, len(runs))
	if ck.failed == 0 || ck.ok() {
		t.Fatalf("failed=%d ok=%v, want the lost egress packet to fail", ck.failed, ck.ok())
	}
}

// TestTranscriptCorruptGoldenFails: one flipped golden byte must fail
// both the CLI comparison and the in-process one.
func TestTranscriptCorruptGoldenFails(t *testing.T) {
	cfg := testConfig(t, "transcript")
	golden, err := readGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), golden...)
	bad[len(bad)/2] ^= 1
	var ck checks
	if _, err := transcriptOp(cfg, &ck, bad, nil, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	inProcessOp(&ck, golden, bad)
	if ck.failed != 2 || ck.ok() {
		t.Fatalf("failed=%d ok=%v, want both comparisons to fail", ck.failed, ck.ok())
	}
}

func TestTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full transcript three times")
	}
	mustRun(t, testConfig(t, "transcript"))
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer, the transcript included")
	}
	cfg := testConfig(t, "nfchain-imix")
	cfg.trace = true
	cfg.seconds = 0.5
	r := mustRun(t, cfg)
	for _, n := range []string{"ratls.rejects", "nfchain.mirror_frac", "core.pager_faults", "xcall.parks"} {
		if r.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, r.Metrics[n].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.out, "nfchain-imix.jsonl")); err != nil {
		t.Error(err)
	}
}

func TestParseTraceSummary(t *testing.T) {
	out := []byte(`track a (2 spans, 0 instants)
  phase             count  SGX(U)  normal   cycles
  sgx               1      224     4586400  10495520
  total (reported)         224     4586400  10495520
  attributed               224     4586400  10495520

track b (1 spans, 0 instants)
  total (reported)         6       100      60180

coverage: 100.0% of reported totals attributed to spans (10555700 of 10555700 cycles)
metrics:
  pager.fault                16350
`)
	s, err := parseTraceSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.cycles != 10555700 || s.sgxu != 230 || s.normal != 4586500 || s.counters["pager.fault"] != 16350 {
		t.Fatalf("parsed %+v", s)
	}
}
