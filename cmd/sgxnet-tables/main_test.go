package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgxnet/internal/eval"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func golden(name string) string { return filepath.Join("testdata", name+".golden") }

// only selects the named sections.
func only(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// checkGolden renders o and compares it with the named golden byte for
// byte, or rewrites the golden under -update.
func checkGolden(t *testing.T, name string, o options) {
	t.Helper()
	var b bytes.Buffer
	if err := emit(&b, o); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden(name), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden(name))
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("output diverges from %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden(name), b.Bytes(), want)
	}
}

// TestGolden is the transcript's determinism gate, driven by the
// experiment registry. Each default experiment renders alone, strictly
// serially (-workers 1), against its own golden; the full default
// transcript renders once at high parallelism (-workers 8,
// oversubscribed on small machines on purpose) against all.golden; and
// the per-section goldens must concatenate to all.golden. Together
// these hold every section byte-identical across worker counts and
// whether selected alone or in the default run. CI runs this under
// -race, so it also shakes out data races in the fan-out itself. Run
// with -update after an intentional change to the instruction model or
// the renderers to rewrite the goldens.
func TestGolden(t *testing.T) {
	var concat []byte
	for _, e := range eval.Experiments {
		if !e.Default {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			checkGolden(t, e.Name, options{sections: only(e.Name), workers: 1})
		})
		sec, err := os.ReadFile(golden(e.Name))
		if err != nil {
			t.Fatalf("missing golden (rerun with -update): %v", err)
		}
		concat = append(concat, sec...)
	}
	t.Run("all", func(t *testing.T) {
		checkGolden(t, "all", options{workers: 8})
	})
	all, err := os.ReadFile(golden("all"))
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(concat, all) {
		t.Error("per-section goldens do not concatenate to all.golden (rerun with -update)")
	}
}

// TestGoldenCSV covers the one output shape all.golden cannot: the CSV
// rendering of Figure 3's points.
func TestGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats the Figure 3 sweep; slow under -short")
	}
	checkGolden(t, "fig3-csv", options{sections: only("fig3"), csv: true})
}

// parseArgs resolves a command line the way main does.
func parseArgs(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("sgxnet-tables", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return resolve()
}

// TestRegistryContract pins the command line the benchmark drives (its
// sectionFlags list) to the experiment registry, so renaming a section
// fails here rather than in the benchmark.
func TestRegistryContract(t *testing.T) {
	t.Run("section-flags", func(t *testing.T) {
		invocations := [][]string{
			{"-table", "1"}, {"-table", "2"}, {"-table", "3"}, {"-table", "4"},
			{"-fig", "3"}, {"-ablations"}, {"-epc-sweep"}, {"-xcall-sweep"},
			{"-load-sweep"}, {"-scale-sweep"}, {"-ratls-sweep"}, {"-chain-sweep"},
		}
		var got, want []string
		for _, args := range invocations {
			o := parseArgs(t, args...)
			var names []string
			for _, e := range eval.Experiments {
				if o.selected(e) {
					names = append(names, e.Name)
				}
			}
			if len(names) != 1 {
				t.Errorf("%v selects %v, want exactly one experiment", args, names)
			}
			got = append(got, names...)
		}
		for _, e := range eval.Experiments {
			if e.Default {
				want = append(want, e.Name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("section flags select %v, want the default experiments %v in order", got, want)
		}
	})

	t.Run("unregistered-number", func(t *testing.T) {
		var b bytes.Buffer
		if err := emit(&b, parseArgs(t, "-table", "99")); err != nil {
			t.Fatalf("-table 99: %v", err)
		}
		if b.Len() != 0 {
			t.Errorf("-table 99 printed %d bytes, want none", b.Len())
		}
	})

	t.Run("no-orphan-goldens", func(t *testing.T) {
		names := map[string]bool{"all": true, "fig3-csv": true}
		for _, e := range eval.Experiments {
			names[e.Name] = true
		}
		files, err := filepath.Glob(golden("*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if stem := strings.TrimSuffix(filepath.Base(f), ".golden"); !names[stem] {
				t.Errorf("%s belongs to no registered experiment", f)
			}
		}
	})
}

// TestBadFormatKeepsFile checks that an unknown export format is
// rejected before any section runs or any output file is truncated.
func TestBadFormatKeepsFile(t *testing.T) {
	for _, tc := range []struct {
		flag string
		o    func(path string) options
	}{
		{"-trace-format", func(p string) options { return options{trace: p, traceFormat: "bogus"} }},
		{"-series-format", func(p string) options { return options{series: p, seriesFormat: "bogus"} }},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old")
			old := []byte("previous run\n")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			o := tc.o(path)
			o.sections = only("table1")
			var b bytes.Buffer
			err := emit(&b, o)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("err = %v, want one naming %s", err, tc.flag)
			}
			if b.Len() != 0 {
				t.Errorf("printed %d bytes before rejecting the format", b.Len())
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
				t.Errorf("existing file changed to %q", got)
			}
		})
	}
}
