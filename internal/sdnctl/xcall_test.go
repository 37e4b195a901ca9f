package sdnctl

import (
	"testing"

	"sgxnet/internal/topo"
	"sgxnet/internal/xcall"
)

// TestSwitchlessQuoteServingAmortizes pins the tentpole claim for the
// quote-serving app: with serve ECALLs and message OCALLs on rings at
// batch 16, the quoting enclave's crossing tally drops ≥2× versus the
// synchronous 17-SGX(U)-per-quote baseline, and the route computation
// itself is unchanged.
func TestSwitchlessQuoteServingAmortizes(t *testing.T) {
	tp, err := topo.Random(topo.Config{N: 8, Seed: 42, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	syncRep, err := RunSGX(tp, SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if syncRep.QuoteXcall != (xcall.Stats{}) {
		t.Fatalf("sync run produced ring stats: %+v", syncRep.QuoteXcall)
	}
	if syncRep.QuoteServing.SGXU == 0 {
		t.Fatal("sync run reported no quote-serving crossings")
	}
	swlRep, err := RunSGX(tp, SGXConfig{Xcall: &xcall.Config{Batch: 16, SpinBudget: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if swlRep.QuoteServing.SGXU*2 > syncRep.QuoteServing.SGXU {
		t.Fatalf("switchless %d SGX vs sync %d: less than 2× reduction",
			swlRep.QuoteServing.SGXU, syncRep.QuoteServing.SGXU)
	}
	st := swlRep.QuoteXcall
	if st.Calls == 0 || st.Drains == 0 || st.Fallbacks == 0 {
		t.Fatalf("ring counters incomplete: %+v", st)
	}
	// Switchless quote serving must not perturb the measured workload.
	if swlRep.InterDomain != syncRep.InterDomain || swlRep.Attestations != syncRep.Attestations {
		t.Fatalf("steady state changed: %+v vs %+v", swlRep.InterDomain, syncRep.InterDomain)
	}
}

// TestSwitchlessQuoteServingDeterministic pins run-to-run stability of
// the switchless quote tallies.
func TestSwitchlessQuoteServingDeterministic(t *testing.T) {
	tp, err := topo.Random(topo.Config{N: 6, Seed: 7, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	xc := xcall.Config{Batch: 4, SpinBudget: 4}
	r1, err := RunSGX(tp, SGXConfig{Xcall: &xc})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSGX(tp, SGXConfig{Xcall: &xc})
	if err != nil {
		t.Fatal(err)
	}
	if r1.QuoteServing != r2.QuoteServing || r1.QuoteXcall != r2.QuoteXcall {
		t.Fatalf("nondeterministic: %+v/%+v vs %+v/%+v",
			r1.QuoteServing, r1.QuoteXcall, r2.QuoteServing, r2.QuoteXcall)
	}
}
