// Command sgxnet-tables regenerates the tables and figures of the
// paper's evaluation (§5) plus the ablations. Its sections, their flags
// and their order come from the eval.Experiments registry.
//
// Usage:
//
//	sgxnet-tables                  # everything
//	sgxnet-tables -table 1         # one table (1–4)
//	sgxnet-tables -fig 3           # Figure 3 sweep
//	sgxnet-tables -ablations       # ablation experiments only
//	sgxnet-tables -epc-sweep       # EPC oversubscription sweep only
//	sgxnet-tables -xcall-sweep     # switchless-call crossing ablation only
//	sgxnet-tables -load-sweep      # open-loop load sweep (latency percentiles)
//	sgxnet-tables -scale-sweep     # discrete-event scale sweep (thousands of hosts)
//	sgxnet-tables -ratls-sweep     # attested-channel sweep (cold vs warm quote verification)
//	sgxnet-tables -chain-sweep     # trusted NF-chain sweep (depth x batch x rule-set size)
//	sgxnet-tables -faults          # fault-tolerance sweep (wall-clock sensitive)
//	sgxnet-tables -workers 8       # evaluation-engine parallelism (0 = GOMAXPROCS)
//	sgxnet-tables -trace out.trace # also record a deterministic trace (JSONL)
//	sgxnet-tables -trace out.json -trace-format chrome  # Perfetto-viewable
//	sgxnet-tables -series out.csv  # also record windowed time-series metrics
//	sgxnet-tables -series out.om -series-format openmetrics
//	sgxnet-tables -debug-addr :6060                     # pprof/expvar server
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"sgxnet/internal/core"
	"sgxnet/internal/eval"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
)

// options selects which sections emit produces.
type options struct {
	sections     map[string]bool // selected eval.Experiments names; none = every default one
	csv          bool
	workers      int    // evaluation-engine parallelism; 0 = GOMAXPROCS
	trace        string // trace output path; "" disables tracing
	traceFormat  string // "jsonl" (default) or "chrome"
	series       string // series output path; "" disables the sampler layer
	seriesFormat string // "csv" (default) or "openmetrics"
	seriesWindow uint64 // window width in cycles; 0 = series.DefaultWindowCycles
}

// selected reports whether emit produces experiment e.
func (o options) selected(e eval.Experiment) bool {
	if len(o.sections) == 0 {
		return e.Default
	}
	return o.sections[e.Name]
}

// emit writes the selected sections. Each section is an independent
// scenario run: it renders into a private buffer on the evaluation
// engine's worker pool, and the buffers are concatenated in canonical
// section order. Every default section is byte-for-byte reproducible at
// any worker count — the golden tests depend on it.
func emit(w io.Writer, o options) error {
	// Resolve the export formats first: a bad one must fail before any
	// section runs and before an existing output file is truncated.
	var writeTrace func(io.Writer, []obs.Event) error
	if o.trace != "" {
		switch o.traceFormat {
		case "", "jsonl":
			writeTrace = obs.WriteJSONL
		case "chrome":
			writeTrace = obs.WriteChrome
		default:
			return fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", o.traceFormat)
		}
	}
	var writeSeries func(io.Writer, *series.Set) error
	if o.series != "" {
		switch o.seriesFormat {
		case "", "csv":
			writeSeries = series.WriteCSV
		case "openmetrics":
			writeSeries = series.WriteOpenMetrics
		default:
			return fmt.Errorf("unknown -series-format %q (want csv or openmetrics)", o.seriesFormat)
		}
	}

	r := eval.NewRunner(o.workers)
	var tr *obs.Trace
	if o.trace != "" {
		// The registry observes every SGX instruction the scenarios
		// execute: platforms created from here on inherit it as their
		// probe. Its counters ride along in the trace's "metrics" track.
		reg := obs.NewRegistry()
		tr = obs.New(reg)
		core.SetDefaultProbe(reg)
		defer core.SetDefaultProbe(nil)
		r.SetTrace(tr)
	}
	var set *series.Set
	if o.series != "" {
		// The windowed sampler layer: instrumented sweeps observe
		// per-window counters and gauges on their virtual clocks. The
		// reduction is order-invariant and tracks are per-cell, so the
		// exported series are byte-identical at any -workers count.
		set = series.NewSet(o.seriesWindow)
		r.SetSeries(set)
	}

	var sections []eval.Section
	for _, e := range eval.Experiments {
		if !o.selected(e) {
			continue
		}
		render := e.Render
		if o.csv && e.CSV != nil {
			render = e.CSV
		}
		sections = append(sections, func() ([]byte, error) {
			var b bytes.Buffer
			if err := render(r, &b); err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			return b.Bytes(), nil
		})
	}
	outs, err := r.RenderAll(sections)
	if err != nil {
		return err
	}
	for _, out := range outs {
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	if tr != nil {
		if err := writeFile(o.trace, func(f io.Writer) error { return writeTrace(f, tr.Events()) }); err != nil {
			return err
		}
	}
	if set != nil {
		if err := writeFile(o.series, func(f io.Writer) error { return writeSeries(f, set) }); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// numbered are the int flags that select one experiment by number:
// -table N selects the entry named "tableN". A number no entry carries
// selects nothing.
var numbered = []struct{ flag, usage string }{
	{"table", "regenerate one table (1-4); 0 = all"},
	{"fig", "regenerate one figure (3); 0 = all"},
}

// bindFlags registers the section flags, derived from eval.Experiments,
// and the run settings on fs. The returned function resolves the parsed
// flags into options.
func bindFlags(fs *flag.FlagSet) func() options {
	var o options
	nums := map[string]*int{}
	for _, n := range numbered {
		nums[n.flag] = fs.Int(n.flag, 0, n.usage)
	}
	bools := map[string]*bool{}
	for _, e := range eval.Experiments {
		prefix := strings.TrimRight(e.Name, "0123456789")
		if _, ok := nums[prefix]; !ok || prefix == e.Name {
			bools[e.Name] = fs.Bool(e.Name, false, e.Usage)
		}
	}
	fs.BoolVar(&o.csv, "csv", false, "emit Figure 3 as CSV (for plotting) instead of the text chart")
	fs.IntVar(&o.workers, "workers", 0, "evaluation-engine worker pool size; 0 = GOMAXPROCS, 1 = serial")
	fs.StringVar(&o.trace, "trace", "", "write a deterministic trace of the run to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "jsonl", "trace format: jsonl (for sgxnet-trace) or chrome (for Perfetto)")
	fs.StringVar(&o.series, "series", "", "write windowed time-series metrics (virtual-clock windows) to this file")
	fs.StringVar(&o.seriesFormat, "series-format", "csv", "series format: csv (for sgxnet-trace -series) or openmetrics")
	fs.Uint64Var(&o.seriesWindow, "series-window", 0, "series window width in cycles; 0 = the default 4Mi")
	return func() options {
		o.sections = map[string]bool{}
		for name, n := range nums {
			if *n != 0 {
				o.sections[name+strconv.Itoa(*n)] = true
			}
		}
		for name, on := range bools {
			if *on {
				o.sections[name] = true
			}
		}
		return o
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgxnet-tables: ")
	resolve := bindFlags(flag.CommandLine)
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060); off by default")
	flag.Parse()
	o := resolve()

	if *debugAddr != "" {
		// Wall-clock profiling of the harness itself (worker-pool
		// utilization, GC); the deterministic cost model never reads it.
		expvar.Publish("workers", expvar.Func(func() any { return o.workers }))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	if err := emit(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}
