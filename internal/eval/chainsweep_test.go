package eval

import "testing"

// TestChainSweepShape checks the two claims the sweep exists to pin:
// batching amortizes the per-hop crossing bill below the synchronous
// cost at every (depth, rules) cell, and at depth 8 the rule table —
// not the crossings — dominates the per-packet cost.
func TestChainSweepShape(t *testing.T) {
	pts, err := NewRunner(0).ChainSweep()
	if err != nil {
		t.Fatal(err)
	}
	want := len(chainSweepGrid.depths) * len(chainSweepGrid.rules) * (1 + len(chainSweepGrid.batches))
	if len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}

	type key struct {
		depth, rules, batch int
	}
	sgx := map[key]ChainSweepPoint{}
	native := map[key]ChainSweepPoint{}
	for _, p := range pts {
		if p.Packets != chainSweepPackets || p.Hops == 0 || p.Delivered == 0 {
			t.Errorf("%s depth=%d batch=%d rules=%d: degenerate cell %+v", p.Mode, p.Depth, p.Batch, p.Rules, p)
		}
		switch p.Mode {
		case "native":
			if p.CrossPerHop != 0 {
				t.Errorf("native depth=%d rules=%d: nonzero crossing cost %d", p.Depth, p.Rules, p.CrossPerHop)
			}
			native[key{p.Depth, p.Rules, 0}] = p
		case "sgx":
			if p.AdmitCold != 1 || p.AdmitWarm != uint64(p.Depth-1) {
				t.Errorf("sgx depth=%d batch=%d rules=%d: admission cold=%d warm=%d, want 1/%d",
					p.Depth, p.Batch, p.Rules, p.AdmitCold, p.AdmitWarm, p.Depth-1)
			}
			if p.CrossPerHop == 0 {
				t.Errorf("sgx depth=%d batch=%d rules=%d: crossing cost vanished", p.Depth, p.Batch, p.Rules)
			}
			sgx[key{p.Depth, p.Rules, p.Batch}] = p
		default:
			t.Fatalf("unknown mode %q", p.Mode)
		}
	}

	for _, d := range chainSweepGrid.depths {
		for _, ru := range chainSweepGrid.rules {
			sync := sgx[key{d, ru, 1}]
			for _, b := range []int{16, 64} {
				batched := sgx[key{d, ru, b}]
				if batched.CrossPerHop >= sync.CrossPerHop {
					t.Errorf("depth=%d rules=%d: batch=%d cross/hop %d not below sync %d",
						d, ru, b, batched.CrossPerHop, sync.CrossPerHop)
				}
			}
			// Identical stages and rules → identical routing outcomes.
			nat := native[key{d, ru, 0}]
			for _, b := range chainSweepGrid.batches {
				s := sgx[key{d, ru, b}]
				if s.Hops != nat.Hops || s.Delivered != nat.Delivered || s.Dropped != nat.Dropped || s.Alerts != nat.Alerts {
					t.Errorf("depth=%d rules=%d batch=%d: sgx routing (hops=%d deliv=%d drop=%d alerts=%d) diverges from native (%d/%d/%d/%d)",
						d, ru, b, s.Hops, s.Delivered, s.Dropped, s.Alerts,
						nat.Hops, nat.Delivered, nat.Dropped, nat.Alerts)
				}
			}
		}
	}

	// Depth 8: the 4096-entry table dominates every mode and dwarfs the
	// 16-entry per-packet cost.
	for _, p := range pts {
		if p.Depth != 8 || p.Rules != 4096 {
			continue
		}
		if p.RuleShare <= 0.5 {
			t.Errorf("%s depth=8 batch=%d rules=4096: rule share %.3f not dominant (>0.5)",
				p.Mode, p.Batch, p.RuleShare)
		}
	}
	if small, big := sgx[key{8, 16, 64}], sgx[key{8, 4096, 64}]; big.PerPacket <= 2*small.PerPacket {
		t.Errorf("depth=8 batch=64: rules=4096 per-packet %d not >2x rules=16 per-packet %d",
			big.PerPacket, small.PerPacket)
	}
}

// TestChainSweepDeterministic checks the workers-equivalence contract
// that the CLI golden relies on.
func TestChainSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice; slow under -short")
	}
	a, err := NewRunner(1).ChainSweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(8).ChainSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d diverged at -workers 8:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
