package sgxnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClockAllowed lists the files under internal/ that may still read
// or wait on the wall clock, relative to internal/. It is a ratchet: the
// virtual-time work removes entries, and nothing adds them.
var wallClockAllowed = map[string]bool{
	"attest/retry.go":   true, // RetryPolicy.Pause, the one retry backoff
	"attest/session.go": true, // session TTLs
	"netsim/netsim.go":  true, // Conn.RecvTimeout deadlines
	"netsim/faults.go":  true, // fault-schedule delay and reorder holds
}

// wallClockFuncs are the package time functions that make a result
// depend on real elapsed time.
var wallClockFuncs = map[string]bool{"Sleep": true, "AfterFunc": true, "NewTimer": true, "Now": true}

// TestWallClockRatchet fails on any wall-clock call in a non-test file
// under internal/ outside wallClockAllowed, so the set of code that can
// make an experiment depend on scheduling only shrinks.
func TestWallClockRatchet(t *testing.T) {
	fset := token.NewFileSet()
	var offences []string
	used := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timeName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "internal"+string(filepath.Separator)))
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
				if wallClockAllowed[rel] {
					used[rel] = true
				} else {
					offences = append(offences, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offences {
		t.Errorf("wall-clock call outside the allow-list: %s", o)
	}
	var stale []string
	for f := range wallClockAllowed {
		if !used[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	for _, f := range stale {
		t.Errorf("internal/%s no longer uses the wall clock: drop it from wallClockAllowed", f)
	}
}
