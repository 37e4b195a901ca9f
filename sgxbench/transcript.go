package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/eval"
	"sgxnet/internal/eval/scale"
)

// transcript: the built sgxnet-tables with no section flags at -workers
// nproc, its stdout compared byte for byte with the measured commit's
// cmd/sgxnet-tables/testdata/all.golden. One op is one transcript. Its
// inputs are pinned by the golden, so the seed does not apply.

// goldenPath is the transcript golden, relative to the checkout root.
var goldenPath = filepath.Join("cmd", "sgxnet-tables", "testdata", "all.golden")

// cliTimeout bounds one child process.
const cliTimeout = 150 * time.Second

// cliRun is one finished child process.
type cliRun struct {
	out, stderr []byte
	dur         time.Duration
	rssMB       float64 // the child's peak resident set
	failed      bool    // exited non-zero
}

// runCLI executes one of the built commands and waits for it.
func runCLI(cfg config, env []string, name string, args ...string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, name), args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{out: out.Bytes(), stderr: stderr.Bytes(), dur: time.Since(t0)}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		r.failed = true
	case err != nil:
		return r, fmt.Errorf("%s: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// transcriptOp runs one sgxnet-tables invocation as a checked op: it
// must exit 0 and print exactly want.
func transcriptOp(cfg config, ck *checks, want []byte, env []string, args ...string) (cliRun, error) {
	r, err := runCLI(cfg, env, "sgxnet-tables", args...)
	if err != nil {
		return r, err
	}
	if !r.failed && bytes.Equal(r.out, want) {
		ck.op(1, 0)
		return r, nil
	}
	ck.op(1, 1)
	// Keep the wrong transcript for diagnosis.
	keep := filepath.Join(cfg.out, "transcript-mismatch.out")
	if os.MkdirAll(cfg.out, 0o755) != nil || os.WriteFile(keep, r.out, 0o644) != nil {
		keep = "no file: writing it failed"
	}
	ck.fail("transcript: sgxnet-tables %s: exit failed=%v, %d bytes vs %d golden bytes, first difference at byte %d (output kept in %s)",
		strings.Join(args, " "), r.failed, len(r.out), len(want), firstDiff(r.out, want), keep)
	return r, nil
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func readGolden(cfg config) ([]byte, error) {
	return os.ReadFile(filepath.Join(cfg.root, goldenPath))
}

func timedTranscript(cfg config, ck *checks) (map[string]metric, error) {
	golden, err := readGolden(cfg)
	if err != nil {
		return nil, err
	}
	workers := strconv.Itoa(cfg.workers)

	// Set-up is process start: a run that selects no section (there is
	// no table 99) prints nothing and exits.
	setup, err := timeSetup(func() {}, func() error {
		r, err := runCLI(cfg, nil, "sgxnet-tables", "-table", "99")
		if err == nil && (r.failed || len(r.out) != 0) {
			err = fmt.Errorf("sgxnet-tables -table 99: exit failed=%v, %d bytes of output", r.failed, len(r.out))
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var rates, rss []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start).Seconds() < cfg.seconds {
		r, err := transcriptOp(cfg, ck, golden, nil, "-workers", workers)
		if err != nil {
			return nil, err
		}
		rates = append(rates, 1/r.dur.Seconds())
		rss = append(rss, r.rssMB)
	}

	// Allocation: the same sections rendered in this process, through
	// the eval functions the CLI calls, must match the golden too.
	h0 := readHeap()
	out, err := emitInProcess(cfg.workers)
	h := readHeap().since(h0)
	if err != nil {
		return nil, err
	}
	inProcessOp(ck, out, golden)

	// Modeled cycles: the CLI's own deterministic trace, summarized by
	// sgxnet-trace.
	_, sum, err := tracedTranscript(cfg, ck, golden)
	if err != nil {
		return nil, err
	}

	ms := map[string]metric{}
	set(ms, "setup_s", setup)
	set(ms, "ops_per_s", median(rates))
	set(ms, "alloc_bytes_per_op", float64(h.bytes))
	set(ms, "mem_peak_mb", median(rss))
	set(ms, "sgx_cycles_per_op", sum.cycles)
	return ms, nil
}

func inProcessOp(ck *checks, out, golden []byte) {
	if bytes.Equal(out, golden) {
		ck.op(1, 0)
		return
	}
	ck.op(1, 1)
	ck.fail("transcript: in-process rendering differs from the golden at byte %d", firstDiff(out, golden))
}

// emitInProcess renders every deterministic section the way
// sgxnet-tables does with no section flags.
func emitInProcess(workers int) ([]byte, error) {
	r := eval.NewRunner(workers)
	sections := []eval.Section{
		section(func() ([]eval.Table1Row, error) { return eval.Table1Traced(nil) }, eval.RenderTable1, true),
		section(func() ([]eval.Table2Row, error) { return eval.Table2Traced(nil) }, eval.RenderTable2, true),
		section(func() ([]eval.Table3Row, error) { return eval.Table3Traced(nil) }, eval.RenderTable3, true),
		section(func() (*eval.Table4Result, error) { return r.Table4At(30) }, eval.RenderTable4, true),
		section(func() ([]eval.Figure3Point, error) { return r.Figure3(nil) }, eval.RenderFigure3, true),
		// RenderAblations ends each of its sub-blocks with a blank line itself.
		section(r.Ablations, eval.RenderAblations, false),
		section(r.EPCSweep, eval.RenderEPCSweep, true),
		section(r.XcallSweep, eval.RenderXcallSweep, true),
		section(r.LoadSweep, eval.RenderLoadSweep, true),
		section(r.ScaleSweep, eval.RenderScaleSweep, true),
		section(r.RATLSSweep, eval.RenderRATLSSweep, true),
		section(r.ChainSweep, eval.RenderChainSweep, true),
	}
	outs, err := r.RenderAll(sections)
	if err != nil {
		return nil, err
	}
	return bytes.Join(outs, nil), nil
}

// section computes one result and renders it, followed by the blank
// line that separates sections when trailer is set.
func section[T any](compute func() (T, error), render func(io.Writer, T), trailer bool) eval.Section {
	return func() ([]byte, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		render(&b, v)
		if trailer {
			b.WriteByte('\n')
		}
		return b.Bytes(), nil
	}
}

// traceSummary is what sgxnet-trace -metrics reports for a trace.
type traceSummary struct {
	cycles       float64 // reported run totals, all tracks
	sgxu, normal float64 // summed per-track reported totals
	counters     map[string]float64
}

// tracedTranscript runs the transcript with the CLI's own -trace and
// summarizes the trace with sgxnet-trace -metrics.
func tracedTranscript(cfg config, ck *checks, golden []byte) (cliRun, traceSummary, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return cliRun{}, traceSummary{}, err
	}
	file := filepath.Join(cfg.out, "transcript.trace")
	r, err := transcriptOp(cfg, ck, golden, nil, "-workers", strconv.Itoa(cfg.workers), "-trace", file)
	if err != nil {
		return r, traceSummary{}, err
	}
	sr, err := runCLI(cfg, nil, "sgxnet-trace", "-metrics", file)
	if err != nil {
		return r, traceSummary{}, err
	}
	if sr.failed {
		return r, traceSummary{}, fmt.Errorf("sgxnet-trace -metrics: %s", sr.stderr)
	}
	sum, err := parseTraceSummary(sr.out)
	return r, sum, err
}

// parseTraceSummary reads sgxnet-trace's per-track "total (reported)"
// rows, its coverage line and its metrics block.
func parseTraceSummary(out []byte) (traceSummary, error) {
	s := traceSummary{counters: map[string]float64{}}
	inMetrics := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "metrics:"):
			inMetrics = true
		case inMetrics && len(f) == 2:
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return s, fmt.Errorf("sgxnet-trace metric line %q: %w", line, err)
			}
			s.counters[f[0]] = v
		case strings.HasPrefix(line, "coverage:"):
			// coverage: P% of reported totals attributed to spans (A of B cycles)
			if len(f) < 3 {
				return s, fmt.Errorf("sgxnet-trace coverage line %q", line)
			}
			v, err := strconv.ParseFloat(f[len(f)-2], 64)
			if err != nil {
				return s, fmt.Errorf("sgxnet-trace coverage line %q: %w", line, err)
			}
			s.cycles = v
		case len(f) == 5 && f[0] == "total" && f[1] == "(reported)":
			u, err1 := strconv.ParseFloat(f[2], 64)
			n, err2 := strconv.ParseFloat(f[3], 64)
			if err := errors.Join(err1, err2); err != nil {
				return s, fmt.Errorf("sgxnet-trace total line %q: %w", line, err)
			}
			s.sgxu += u
			s.normal += n
		}
	}
	if s.cycles == 0 {
		return s, fmt.Errorf("sgxnet-trace printed no coverage line")
	}
	return s, sc.Err()
}

// gcPercent reads the GC CPU share the Go runtime prints on the last
// GODEBUG=gctrace=1 line ("gc N @Ts P%: …").
func gcPercent(stderr []byte) float64 {
	pct := 0.0
	for _, line := range strings.Split(string(stderr), "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "gc" && strings.HasSuffix(f[3], "%:") {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "%:"), 64); err == nil {
				pct = v
			}
		}
	}
	return pct
}

// transcriptLayers measures the eval, core pager and des layers on
// transcript: one CLI run per section flag (their outputs must
// concatenate to the golden), full runs at -workers 1 and nproc, and the
// CLI's own -trace for the modeled attribution.
func transcriptLayers(cfg config, ck *checks, ms map[string]metric, named bool) error {
	golden, err := readGolden(cfg)
	if err != nil {
		return err
	}
	workers := strconv.Itoa(cfg.workers)
	var parts [][]byte
	for _, s := range sectionFlags {
		r, err := runCLI(cfg, nil, "sgxnet-tables", append(s.flags, "-workers", workers)...)
		if err != nil {
			return err
		}
		if r.failed {
			ck.fail("transcript: sgxnet-tables %s failed: %s", strings.Join(s.flags, " "), r.stderr)
		}
		set(ms, "eval.section_s."+s.name, r.dur.Seconds())
		parts = append(parts, r.out)
	}
	inProcessOp(ck, bytes.Join(parts, nil), golden)

	serial, err := transcriptOp(cfg, ck, golden, nil, "-workers", "1")
	if err != nil {
		return err
	}
	full, err := transcriptOp(cfg, ck, golden, []string{"GODEBUG=gctrace=1"}, "-workers", workers)
	if err != nil {
		return err
	}
	set(ms, "eval.runner_speedup_x", serial.dur.Seconds()/full.dur.Seconds())
	traced, sum, err := tracedTranscript(cfg, ck, golden)
	if err != nil {
		return err
	}
	set(ms, "core.pager_faults", sum.counters["pager.fault"])
	if named {
		set(ms, "core.sgx_u_per_op", sum.sgxu)
		set(ms, "core.normal_per_op", sum.normal)
		set(ms, "go.gc_cpu_frac", gcPercent(full.stderr)/100)
		set(ms, "trace_overhead_frac", traced.dur.Seconds()/full.dur.Seconds()-1)
	}

	us, err := replayPager()
	if err != nil {
		return err
	}
	set(ms, "core.pager_fault_us", us)
	eps, err := desEventsPerSecond()
	if err != nil {
		return err
	}
	set(ms, "des.events_per_s", eps)
	return nil
}

// replayPager times core.Pager.Touch on the EPC sweep's access pattern
// at twice the EPC budget, where every touch faults: one tenant cycling
// over its working set.
func replayPager() (float64, error) {
	plat, err := core.NewPlatform("sgxbench-pager", core.PlatformConfig{EPCFrames: 256, Seed: []byte("sgxbench/pager")})
	if err != nil {
		return 0, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return 0, err
	}
	enc, err := plat.Launch(&core.Program{
		Name:     "sgxbench-tenant",
		Version:  "1",
		Handlers: map[string]core.Handler{"op": func(env *core.Env, arg []byte) ([]byte, error) { return nil, nil }},
	}, signer)
	if err != nil {
		return 0, err
	}
	pager := core.NewPager(plat.EPC(), core.NewClockPolicy())
	ws := 2 * plat.EPC().FreeCount()
	touch := func() error {
		for i := 0; i < ws; i++ {
			if _, err := pager.Touch(enc.Meter(), enc.ID(), uint64(i)*core.PageSize); err != nil {
				return err
			}
		}
		return nil
	}
	if err := touch(); err != nil { // first pass: demand-zero faults
		return 0, err
	}
	f0 := pager.Stats().Faults
	d, err := timeReps(5, touch)
	if err != nil {
		return 0, err
	}
	perPass := float64(pager.Stats().Faults-f0) / 5
	return ratio(d.Seconds()*1e6, perPass), nil
}

// desEventsPerSecond runs the scale sweep's canonical 1024-AS SDN cell on
// the DES kernel through scale.RunSampled.
func desEventsPerSecond() (float64, error) {
	sp, err := scale.ParseSpec("sdn:ases=1024,updates=4,rate=100,seed=42")
	if err != nil {
		return 0, err
	}
	var events uint64
	d, err := timeReps(3, func() error {
		res, err := scale.RunSampled(sp, nil)
		events = res.Events
		return err
	})
	return ratio(float64(events), d.Seconds()), err
}

// tracedRun is the per-layer run: every layer is measured on the
// workload that exercises it; the named workload also reports its
// untraced-versus-traced overhead, GC share and core per-op counts.
func tracedRun(cfg config, ck *checks) (map[string]metric, error) {
	ms := map[string]metric{}
	if err := ratlsLayers(cfg, ck, ms, cfg.workload == "ratls-admit"); err != nil {
		return nil, fmt.Errorf("ratls-admit layers: %w", err)
	}
	if err := chainLayers(cfg, ck, ms, cfg.workload == "nfchain-imix"); err != nil {
		return nil, fmt.Errorf("nfchain-imix layers: %w", err)
	}
	if err := transcriptLayers(cfg, ck, ms, cfg.workload == "transcript"); err != nil {
		return nil, fmt.Errorf("transcript layers: %w", err)
	}
	return ms, nil
}
