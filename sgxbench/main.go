// Command sgxbench is sgxnet's end-to-end and per-layer benchmark. It
// drives three workloads from one process, checks every workload's
// outputs for correctness, and prints one JSON result line last:
//
//	transcript    the full sgxnet-tables transcript, byte-compared to the golden
//	ratls-admit   RA-TLS admissions through an SGX gate enclave
//	nfchain-imix  IMIX traffic through the depth-8 enclave NF chain
//
// Usage, from the root of an sgxnet checkout (run.sh builds this command
// and the CLIs it executes, then runs it):
//
//	bash sgxbench/run.sh --workload ratls-admit --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate traced run reports the per-layer metrics. README.md lists
// the metrics, the layer → metric → workload map and the exported
// functions the benchmark calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // sgxnet checkout root
	bin      string // directory holding the built sgxnet-tables and sgxnet-trace
	out      string // directory for span dumps and the CLI trace (traced runs)
	workers  int    // ratls-admit driver goroutines and sgxnet-tables -workers: nproc
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks accumulates correctness outcomes: every attempted op either
// succeeds or fails, and a failed run-level invariant (a modeled count
// that did not repeat) marks the whole run incorrect.
type checks struct {
	attempted int64
	failed    int64
	broken    bool
	notes     []string
}

// op records n attempted ops of which bad had a wrong outcome.
func (c *checks) op(n, bad int64) {
	c.attempted += n
	c.failed += bad
}

// fail records a wrong outcome (or a broken invariant) with a reason.
func (c *checks) fail(format string, args ...any) {
	c.broken = true
	if len(c.notes) < 16 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool { return !c.broken && c.failed == 0 && c.attempted > 0 }

// workloads maps a workload name to its timed run. Every workload shares
// one traced run, tracedRun.
var workloads = map[string]func(cfg config, ck *checks) (map[string]metric, error){
	"transcript":   timedTranscript,
	"ratls-admit":  timedRATLS,
	"nfchain-imix": timedChain,
}

func run(cfg config) (result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		fn = tracedRun
	}
	var ck checks
	ms, err := fn(cfg, &ck)
	if err != nil {
		return result{}, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, d := range want {
		m, ok := ms[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return result{}, fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	for _, n := range ck.notes {
		fmt.Fprintln(os.Stderr, "sgxbench: check failed:", n)
	}
	return result{Correct: ck.ok(), Attempted: ck.attempted, Failed: ck.failed, Metrics: ms}, nil
}

// report prints every metric by name and unit, then the JSON line.
func report(cfg config, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, n := range names {
		fmt.Printf("  %-34s %18.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-34s %18.6g ratio (%d of %d ops wrong)\n", "fail_frac", frac, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	// Run from the checkout root, where run.sh has built the commands
	// into .bench_build/bin.
	cfg := config{
		root:    ".",
		bin:     filepath.Join(".bench_build", "bin"),
		out:     filepath.Join(".bench_build", "spans"),
		workers: runtime.NumCPU(),
	}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "transcript, ratls-admit or nfchain-imix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "sgxbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "sgxbench: -seconds must be positive")
		os.Exit(2)
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgxbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, r); err != nil {
		fmt.Fprintln(os.Stderr, "sgxbench:", err)
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}
