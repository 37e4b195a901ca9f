package eval

import (
	"testing"
)

// TestEPCSweepShape checks the paper-shaped property the sweep exists
// to demonstrate: per-op overhead is flat while working sets fit the
// EPC and grows once the working-set/share ratio crosses 1.0 — under
// every tenant count and every eviction policy.
func TestEPCSweepShape(t *testing.T) {
	pts, err := NewRunner(0).EPCSweep()
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(epcSweepGrid.tenants) * len(epcSweepGrid.ratios) * len(epcSweepGrid.policies)
	if len(pts) != wantPoints {
		t.Fatalf("got %d points, want %d", len(pts), wantPoints)
	}
	// Index by (tenants, policy) → overhead by ratio, in grid order.
	byCell := make(map[string][]EPCSweepPoint)
	for _, p := range pts {
		k := p.Policy + "/" + string(rune('0'+p.Tenants))
		byCell[k] = append(byCell[k], p)
	}
	for k, series := range byCell {
		if len(series) != len(epcSweepGrid.ratios) {
			t.Fatalf("%s: %d ratios, want %d", k, len(series), len(epcSweepGrid.ratios))
		}
		for i := 1; i < len(series); i++ {
			if series[i].Overhead < series[i-1].Overhead {
				t.Errorf("%s: overhead fell from %.2f to %.2f as ratio grew %.1f→%.1f",
					k, series[i-1].Overhead, series[i].Overhead, series[i-1].Ratio, series[i].Ratio)
			}
		}
		last := series[len(series)-1]
		first := series[0]
		if last.Overhead <= first.Overhead {
			t.Errorf("%s: no paging penalty at ratio %.1f (%.2f vs %.2f at %.1f)",
				k, last.Ratio, last.Overhead, first.Overhead, first.Ratio)
		}
		if last.Stats.Evictions == 0 || last.Stats.Reloads == 0 {
			t.Errorf("%s: oversubscribed point never paged: %+v", k, last.Stats)
		}
		if first.Stats.Evictions != 0 {
			t.Errorf("%s: working set within share still evicted: %+v", k, first.Stats)
		}
	}
}

// TestEPCSweepDeterministic checks the determinism contract: two
// independent runs — and a serial vs oversubscribed-parallel pair —
// produce identical points, stats and all.
func TestEPCSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times; slow under -short")
	}
	a, err := NewRunner(1).EPCSweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(1).EPCSweep()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRunner(8).EPCSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d diverged between serial runs:\n%+v\n%+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Errorf("point %d diverged at -workers 8:\n%+v\n%+v", i, a[i], c[i])
		}
	}
}
