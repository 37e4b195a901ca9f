package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/ratls"
)

// ratls-admit: an SGX gate enclave (ratls.GateProgram) in front of one
// sharded ratls.Verifier admits a seeded Zipf stream of peers. One round
// is one revocation epoch: SetPolicy re-arms the cache, every peer's
// first admission in the epoch is cold and the rest are warm, and one
// admission in ratlsLookalike presents a forged look-alike that must be
// refused.
const (
	ratlsPeers     = 256
	ratlsEpoch     = 65536 // admissions per epoch (one measured round)
	ratlsLookalike = 1024  // one look-alike per this many admissions
	ratlsShards    = 8
	ratlsZipfS     = 1.1
	ratlsTraced    = 3 // epochs in the traced phase
)

// admission is one generated input.
type admission struct {
	peer      int
	lookalike bool // presents the peer's look-alike certificate
	cold      bool // the peer's first genuine admission in the epoch
}

// ratlsInputs is one epoch of admissions, replayed every round, plus the
// expected-verdict table and the look-alike recipe.
type ratlsInputs struct {
	epoch            []admission
	expectAccept     []bool // per admission: genuine → admitted, look-alike → refused
	flipBack         []int  // per peer: the look-alike's flipped byte, counted from the end
	flipMask         []byte // per peer: the bit flipped
	cold, lookalikes int
}

// genRATLS builds the inputs from the seed: Zipf(s=1.1) peer ranks
// mapped through a seeded permutation, and every ratlsLookalike-th
// admission replaced by a look-alike of the previous (already warm)
// peer's certificate: same length, one bit flipped in the signature
// tail.
func genRATLS(seed int64) *ratlsInputs {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(ratlsPeers)
	z := rand.NewZipf(rng, ratlsZipfS, 1, ratlsPeers-1)
	in := &ratlsInputs{
		epoch:        make([]admission, ratlsEpoch),
		expectAccept: make([]bool, ratlsEpoch),
		flipBack:     make([]int, ratlsPeers),
		flipMask:     make([]byte, ratlsPeers),
	}
	seen := make([]bool, ratlsPeers)
	for i := range in.epoch {
		if i%ratlsLookalike == ratlsLookalike-1 {
			in.epoch[i] = admission{peer: in.epoch[i-1].peer, lookalike: true}
			in.lookalikes++
			continue
		}
		p := perm[z.Uint64()]
		in.epoch[i] = admission{peer: p, cold: !seen[p]}
		in.expectAccept[i] = true
		if !seen[p] {
			in.cold++
		}
		seen[p] = true
	}
	for p := range in.flipBack {
		in.flipBack[p] = 1 + rng.Intn(32)
		in.flipMask[p] = 1 << rng.Intn(8)
	}
	return in
}

// partition splits the epoch's admission indices across g driver
// goroutines by peer, so no two goroutines ever miss on the same
// certificate and the modeled counts are exact at any g. Peers go to the
// least-loaded goroutine, heaviest first.
func partition(in *ratlsInputs, g int) [][]int32 {
	count := make([]int, ratlsPeers)
	for _, a := range in.epoch {
		count[a.peer]++
	}
	order := make([]int, ratlsPeers)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return count[order[a]] > count[order[b]] })
	owner := make([]int, ratlsPeers)
	load := make([]int, g)
	for _, p := range order {
		best := 0
		for w := 1; w < g; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		owner[p] = best
		load[best] += count[p]
	}
	parts := make([][]int32, g)
	for i, a := range in.epoch {
		parts[owner[a.peer]] = append(parts[owner[a.peer]], int32(i))
	}
	return parts
}

// ratlsRig is the system under test.
type ratlsRig struct {
	gate   *core.Enclave
	peer   *core.Enclave // one launched peer, for the bare-ECALL replay
	v      *ratls.Verifier
	pol    attest.Policy
	names  []string
	certs  [][]byte
	fakes  [][]byte
	want   []byte    // MRENCLAVE ‖ MRSIGNER a genuine admission returns
	launch []float64 // ns per peer Platform.Launch
}

// ratlsPeerProgram is the attested build every peer runs.
func ratlsPeerProgram() *core.Program {
	prog := &core.Program{
		Name:    "sgxbench-peer",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
		},
	}
	ratls.AddSubjectHandlers(prog)
	return prog
}

// newRATLSRig creates the platform, mints ratlsPeers peer certificates
// and their look-alikes, and launches the gate enclave.
func newRATLSRig(seed int64, in *ratlsInputs) (*ratlsRig, error) {
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	plat, err := core.NewPlatform("sgxbench-ratls", core.PlatformConfig{
		EPCFrames: 4096, ArchSigner: arch.MRSigner(), Seed: []byte(fmt.Sprintf("sgxbench/ratls/%d", seed)),
	})
	if err != nil {
		return nil, err
	}
	mt, err := ratls.NewMinter(plat, arch)
	if err != nil {
		return nil, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	prog := ratlsPeerProgram()
	mr, ms := core.MeasureProgram(prog), signer.MRSigner()
	r := &ratlsRig{
		pol:   attest.Policy{AllowedEnclaves: []core.Measurement{mr}, RejectDebug: true},
		want:  append(append([]byte(nil), mr[:]...), ms[:]...),
		names: make([]string, ratlsPeers),
		certs: make([][]byte, ratlsPeers),
		fakes: make([][]byte, ratlsPeers),
	}
	for i := 0; i < ratlsPeers; i++ {
		t0 := time.Now()
		enc, err := plat.Launch(prog, signer)
		if err != nil {
			return nil, fmt.Errorf("launch peer %d: %w", i, err)
		}
		r.launch = append(r.launch, float64(time.Since(t0)))
		if _, r.certs[i], err = mt.Mint(enc); err != nil {
			return nil, fmt.Errorf("mint peer %d: %w", i, err)
		}
		r.fakes[i] = append([]byte(nil), r.certs[i]...)
		r.fakes[i][len(r.fakes[i])-in.flipBack[i]] ^= in.flipMask[i]
		r.names[i] = fmt.Sprintf("peer-%d", i)
		if i == 0 {
			r.peer = enc
		}
	}
	r.v = ratls.NewVerifier(r.pol, ratlsShards)
	if r.gate, err = plat.Launch(ratls.GateProgram(r.v), signer); err != nil {
		return nil, err
	}
	r.gate.Meter().Reset() // the launch is set-up, not admission work
	return r, nil
}

// verdictOK checks one admission against the expected-verdict table.
func (r *ratlsRig) verdictOK(accept bool, out []byte, err error) bool {
	if accept {
		return err == nil && bytes.Equal(out, r.want)
	}
	return errors.Is(err, ratls.ErrRejected)
}

// epochRun is one measured epoch.
type epochRun struct {
	dur   time.Duration
	tally core.Tally
	bad   int64
}

// runEpoch revokes the cache and drives one epoch of admissions, one
// goroutine per part. Spans go to trs[g] when tracing.
func (r *ratlsRig) runEpoch(in *ratlsInputs, parts [][]int32, trs []*tracer, opBase int64) epochRun {
	t0 := time.Now()
	r.v.SetPolicy(r.pol)
	bad := make([]int64, len(parts))
	var wg sync.WaitGroup
	for g, idx := range parts {
		var tr *tracer
		if trs != nil {
			tr = trs[g]
		}
		wg.Add(1)
		go func(g int, idx []int32, tr *tracer) {
			defer wg.Done()
			for _, i := range idx {
				a := in.epoch[i]
				cert := r.certs[a.peer]
				if a.lookalike {
					cert = r.fakes[a.peer]
				}
				s := tr.begin("gate.Call", opBase+int64(i))
				out, err := r.gate.Call(ratls.GateService, ratls.EncodeAdmit(r.names[a.peer], cert))
				tr.end(s)
				if !r.verdictOK(in.expectAccept[i], out, err) {
					bad[g]++
				}
			}
		}(g, idx, tr)
	}
	wg.Wait()
	e := epochRun{dur: time.Since(t0), tally: r.gate.Meter().SnapshotAndReset()}
	for _, b := range bad {
		e.bad += b
	}
	return e
}

// epochs runs epochs until budget seconds have passed (at least one),
// checking that every epoch charges exactly the first one's tally and
// that the verifier counted the generated mix.
func (r *ratlsRig) epochs(ck *checks, in *ratlsInputs, parts [][]int32, budget float64) []epochRun {
	st0 := r.v.Stats()
	var runs []epochRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start).Seconds() < budget {
		runs = append(runs, r.runEpoch(in, parts, nil, 0))
		checkEpoch(ck, runs)
	}
	r.checkStats(ck, in, st0, len(runs))
	return runs
}

// checkEpoch counts the last epoch's ops and holds it to the first
// epoch's modeled tally: every epoch replays the same inputs.
func checkEpoch(ck *checks, runs []epochRun) {
	e := runs[len(runs)-1]
	ck.op(ratlsEpoch, e.bad)
	if e.tally != runs[0].tally {
		ck.fail("ratls-admit: epoch %d charged %v, epoch 0 charged %v", len(runs)-1, e.tally, runs[0].tally)
	}
}

// checkStats compares the verifier's counters over n epochs with the
// generated mix: exactly one cold verification per distinct peer per
// epoch, every other genuine admission warm, every look-alike refused.
func (r *ratlsRig) checkStats(ck *checks, in *ratlsInputs, st0 ratls.Stats, n int) {
	st := r.v.Stats()
	cold, warm, rej := st.Cold-st0.Cold, st.Warm-st0.Warm, st.Rejects-st0.Rejects
	genuine := uint64(ratlsEpoch - in.lookalikes)
	if cold != uint64(n*in.cold) || warm != uint64(n)*(genuine-uint64(in.cold)) || rej != uint64(n*in.lookalikes) {
		ck.fail("ratls-admit: verifier counted cold/warm/rejects %d/%d/%d over %d epochs, want %d/%d/%d",
			cold, warm, rej, n, n*in.cold, uint64(n)*(genuine-uint64(in.cold)), n*in.lookalikes)
	}
}

// repeatCheck runs one more epoch on a single goroutine: it must charge
// exactly what the nproc-goroutine epochs charged.
func (r *ratlsRig) repeatCheck(ck *checks, in *ratlsInputs, want core.Tally) {
	st0 := r.v.Stats()
	e := r.runEpoch(in, partition(in, 1), nil, 0)
	ck.op(ratlsEpoch, e.bad)
	if e.tally != want {
		ck.fail("ratls-admit: 1-goroutine epoch charged %v, the measured epochs %v", e.tally, want)
	}
	r.checkStats(ck, in, st0, 1)
}

func timedRATLS(cfg config, ck *checks) (map[string]metric, error) {
	in := genRATLS(cfg.seed)
	var rig *ratlsRig
	setup, err := timeSetup(func() { rig = nil }, func() (err error) {
		rig, err = newRATLSRig(cfg.seed, in)
		return err
	})
	if err != nil {
		return nil, err
	}
	parts := partition(in, cfg.workers)
	h0 := readHeap()
	runs := rig.epochs(ck, in, parts, cfg.seconds)
	h := readHeap().since(h0)
	mem := retainedMB() // the rig is still in use below
	rig.repeatCheck(ck, in, runs[0].tally)

	rates := make([]float64, len(runs))
	for i, e := range runs {
		rates[i] = ratlsEpoch / e.dur.Seconds()
	}
	ops := float64(len(runs) * ratlsEpoch)
	ms := map[string]metric{}
	set(ms, "setup_s", setup)
	set(ms, "ops_per_s", median(rates))
	set(ms, "alloc_bytes_per_op", float64(h.bytes)/ops)
	set(ms, "mem_peak_mb", mem)
	set(ms, "sgx_cycles_per_op", float64(runs[0].tally.Cycles())/ratlsEpoch)
	return ms, nil
}

// ratlsLayers measures the core and ratls layers on ratls-admit. When
// ratls-admit is the traced run's workload it also reports the untraced
// versus traced overhead, the GC share and the core per-op counts.
func ratlsLayers(cfg config, ck *checks, ms map[string]metric, named bool) error {
	in := genRATLS(cfg.seed)
	rig, err := newRATLSRig(cfg.seed, in)
	if err != nil {
		return err
	}
	set(ms, "core.launch_ms", median(rig.launch)/1e6)
	parts := partition(in, cfg.workers)

	var untraced []epochRun
	if named {
		c0 := readCPU()
		untraced = rig.epochs(ck, in, parts, cfg.seconds/2)
		set(ms, "go.gc_cpu_frac", gcFrac(c0, readCPU()))
	}

	base := time.Now()
	trs := make([]*tracer, len(parts))
	for g := range trs {
		trs[g] = newTracer(base)
	}
	st0 := rig.v.Stats()
	var traced []epochRun
	for e := 0; e < ratlsTraced; e++ {
		traced = append(traced, rig.runEpoch(in, parts, trs, int64(e)*ratlsEpoch))
		checkEpoch(ck, traced)
	}
	rig.checkStats(ck, in, st0, len(traced))
	st := rig.v.Stats()
	n := float64(len(traced))
	cold := float64(st.Cold-st0.Cold) / n
	warm := float64(st.Warm-st0.Warm) / n
	set(ms, "ratls.cold", cold)
	set(ms, "ratls.warm", warm)
	set(ms, "ratls.rejects", float64(st.Rejects-st0.Rejects)/n)
	set(ms, "ratls.hit_rate", ratio(warm, cold+warm))
	set(ms, "ratls.cache_entries", float64(st.Entries))

	class := func(want func(a admission) bool) func(op int64) bool {
		return func(op int64) bool { return want(in.epoch[op%ratlsEpoch]) }
	}
	isCold := class(func(a admission) bool { return a.cold })
	isWarm := class(func(a admission) bool { return !a.cold && !a.lookalike })
	isFake := class(func(a admission) bool { return a.lookalike })
	var coldD, warmD, fakeD []float64
	for _, tr := range trs {
		coldD = append(coldD, durations(tr, "gate.Call", isCold)...)
		warmD = append(warmD, durations(tr, "gate.Call", isWarm)...)
		fakeD = append(fakeD, durations(tr, "gate.Call", isFake)...)
	}
	set(ms, "ratls.warm_admit_ns", median(warmD))
	set(ms, "ratls.cold_admit_us", median(coldD)/1e3)
	set(ms, "ratls.reject_us", median(fakeD)/1e3)
	set(ms, "ratls.cold_time_share", ratio(sum(coldD), sum(coldD)+sum(warmD)+sum(fakeD)))

	if named {
		tally := traced[0].tally
		set(ms, "core.sgx_u_per_op", float64(tally.SGXU)/ratlsEpoch)
		set(ms, "core.normal_per_op", float64(tally.Normal)/ratlsEpoch)
		u := make([]float64, len(untraced))
		for i, e := range untraced {
			u[i] = float64(e.dur)
		}
		t := make([]float64, len(traced))
		for i, e := range traced {
			t[i] = float64(e.dur)
		}
		set(ms, "trace_overhead_frac", median(t)/median(u)-1)
	}

	// Replays on the warm cache: the epoch's own warm admissions, one
	// goroutine, for allocations per admission; then bare ECALLs.
	var warmIdx []int
	for i, a := range in.epoch {
		if !a.cold && !a.lookalike {
			warmIdx = append(warmIdx, i)
		}
	}
	var bad int64
	h0 := readHeap()
	for _, i := range warmIdx {
		a := in.epoch[i]
		out, err := rig.gate.Call(ratls.GateService, ratls.EncodeAdmit(rig.names[a.peer], rig.certs[a.peer]))
		if !rig.verdictOK(true, out, err) {
			bad++
		}
	}
	h := readHeap().since(h0)
	ck.op(int64(len(warmIdx)), bad)
	set(ms, "ratls.warm_admit_allocs", float64(h.objects)/float64(len(warmIdx)))
	set(ms, "ratls.warm_admit_bytes", float64(h.bytes)/float64(len(warmIdx)))

	const calls = 20000
	d, err := timeReps(5, func() error {
		for i := 0; i < calls; i++ {
			if _, err := rig.peer.Call("noop", nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set(ms, "core.ecall_ns", float64(d)/calls)
	return writeSpans(cfg.out, "ratls-admit", trs...)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
