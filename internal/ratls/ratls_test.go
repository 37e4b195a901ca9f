package ratls

import (
	"errors"
	"sync"
	"testing"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/tlslite"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// rig is one SGX platform with a minter and a launched subject enclave.
type rig struct {
	plat    *core.Platform
	minter  *Minter
	subject *core.Enclave
}

// subjectProgram is the test's attested application build.
func subjectProgram() *core.Program {
	prog := &core.Program{
		Name:    "ratls-subject",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
		},
	}
	AddSubjectHandlers(prog)
	return prog
}

func newRig(t testing.TB, seed string) *rig {
	t.Helper()
	arch, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := core.NewPlatform("ratls-"+seed, core.PlatformConfig{
		EPCFrames: 512, ArchSigner: arch.MRSigner(), Seed: []byte(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMinter(plat, arch)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := plat.Launch(subjectProgram(), signer)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{plat: plat, minter: mt, subject: enc}
}

// whitelist returns a policy admitting exactly the rig's subject build.
func (r *rig) whitelist() attest.Policy {
	return attest.Policy{
		AllowedEnclaves: []core.Measurement{r.subject.MREnclave()},
		RejectDebug:     true,
	}
}

// coldCost is the exact meter charge of one full verification: the
// proof-of-possession check plus the quote-signature check.
func coldCost() uint64 {
	popLen := uint64(len(popLabel) + 32 + 16)
	quoteLen := uint64(len("sgxnet-quote-v1") + 32 + 32 + 1 + 64 + 32)
	return 2*core.CostSigVerify + (popLen+quoteLen)*core.CostSHA256PerByte
}

func TestMintAndAdmit(t *testing.T) {
	r := newRig(t, "mint-admit")
	cert, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != CertSize {
		t.Fatalf("cert is %d bytes, want %d", len(raw), CertSize)
	}
	if cert.Quote.Data != BindingData(cert.Pub, cert.InstanceID) {
		t.Fatalf("minted quote does not bind the certificate key")
	}

	reg := obs.NewRegistry()
	v := NewVerifier(r.whitelist(), 4)
	v.Probe = reg
	m := core.NewMeter()

	id, err := v.Admit(m, raw, "relay-a")
	if err != nil {
		t.Fatalf("cold admit: %v", err)
	}
	if id.MREnclave != r.subject.MREnclave() {
		t.Fatalf("admitted identity mismatch")
	}
	if got := m.Normal(); got != coldCost() {
		t.Fatalf("cold admit charged %d, want %d", got, coldCost())
	}

	m.Reset()
	if _, err := v.Admit(m, raw, "relay-a"); err != nil {
		t.Fatalf("warm admit: %v", err)
	}
	if got := m.Normal(); got != core.CostQuoteCacheLookup {
		t.Fatalf("warm admit charged %d, want %d", got, core.CostQuoteCacheLookup)
	}
	if reg.Get(KindVerifyCold) != 1 || reg.Get(KindVerifyWarm) != 1 || reg.Get(KindReject) != 0 {
		t.Fatalf("probe counts cold=%d warm=%d reject=%d, want 1/1/0",
			reg.Get(KindVerifyCold), reg.Get(KindVerifyWarm), reg.Get(KindReject))
	}
	st := v.Stats()
	if st.Cold != 1 || st.Warm != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want cold=1 warm=1 entries=1", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.HitRate())
	}
}

// TestTamperedCertRejected: every tampered byte region fails closed,
// and checks that fail before any signature verifies charge zero.
func TestTamperedCertRejected(t *testing.T) {
	r := newRig(t, "tamper")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	popOff := CertSize - 64       // self-signature
	quoteSigOff := CertSize - 128 // platform signature
	cases := []struct {
		name       string
		mutate     func([]byte) []byte
		zeroCharge bool // reject happens before any charge
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"non-canonical debug", func(b []byte) []byte { b[len(certMagic)+32+16+64] = 7; return b }, true},
		{"key swap breaks binding", func(b []byte) []byte { b[len(certMagic)] ^= 1; return b }, true},
		{"pop sig flip", func(b []byte) []byte { b[popOff] ^= 1; return b }, true},
		// A flipped quote signature is found after the pop check passed,
		// so the pop verification is (correctly) charged.
		{"quote sig flip", func(b []byte) []byte { b[quoteSigOff] ^= 1; return b }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifier(r.whitelist(), 1)
			m := core.NewMeter()
			mutated := tc.mutate(append([]byte(nil), raw...))
			if _, err := v.Admit(m, mutated, "relay"); !errors.Is(err, ErrRejected) {
				t.Fatalf("tampered cert admitted (err=%v)", err)
			}
			if tc.zeroCharge && m.Normal() != 0 {
				t.Fatalf("pre-verification reject charged %d, want 0", m.Normal())
			}
			if st := v.Stats(); st.Rejects != 1 || st.Entries != 0 {
				t.Fatalf("stats %+v, want rejects=1 entries=0", st)
			}
		})
	}
}

func TestPolicyRejectsUnknownBuild(t *testing.T) {
	r := newRig(t, "policy")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(attest.Policy{
		AllowedEnclaves: []core.Measurement{{0xba, 0xad}},
		RejectDebug:     true,
	}, 1)
	_, err = v.Admit(core.NewMeter(), raw, "relay")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("non-whitelisted build admitted (err=%v)", err)
	}
	var perr *attest.ErrPolicy
	if !errors.As(err, &perr) {
		t.Fatalf("rejection does not carry the policy error: %v", err)
	}
}

// TestSybilReRegistrationRejected: one enclave instance may register
// under exactly one peer name — on the warm path and on the cold path.
func TestSybilReRegistrationRejected(t *testing.T) {
	r := newRig(t, "sybil")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 2)
	if _, err := v.Admit(core.NewMeter(), raw, "relay-a"); err != nil {
		t.Fatal(err)
	}
	// Warm path: the cached certificate under a second name.
	if _, err := v.Admit(core.NewMeter(), raw, "relay-b"); !errors.Is(err, ErrRejected) {
		t.Fatalf("warm Sybil re-registration admitted (err=%v)", err)
	}
	// Cold path: evict the verdict, then re-present under a third name.
	v.Invalidate(raw)
	if _, err := v.Admit(core.NewMeter(), raw, "relay-c"); !errors.Is(err, ErrRejected) {
		t.Fatalf("cold Sybil re-registration admitted (err=%v)", err)
	}
	// The original name still works.
	if _, err := v.Admit(core.NewMeter(), raw, "relay-a"); err != nil {
		t.Fatalf("legitimate re-admission failed: %v", err)
	}
	// After an epoch bump the original name re-verifies cold and caches
	// a fresh verdict; on that warm entry a second name is still refused.
	v.InvalidateAll()
	if _, err := v.Admit(core.NewMeter(), raw, "relay-a"); err != nil {
		t.Fatalf("re-admission after epoch bump failed: %v", err)
	}
	m := core.NewMeter()
	if _, err := v.Admit(m, raw, "relay-d"); !errors.Is(err, ErrRejected) {
		t.Fatalf("warm Sybil re-registration after epoch bump admitted (err=%v)", err)
	}
	if m.Normal() != 0 {
		t.Fatalf("refused warm Sybil charged %d, want 0", m.Normal())
	}
}

// TestLookalikeDoesNotPoisonCache: certificates one bit away from a
// cached one are full misses. Each is refused, charges only the
// signature checks that passed before the flipped field failed, and
// leaves the cache as it was; the genuine certificate stays warm.
func TestLookalikeDoesNotPoisonCache(t *testing.T) {
	r := newRig(t, "lookalike")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 4)
	if _, err := v.Admit(core.NewMeter(), raw, "relay"); err != nil {
		t.Fatal(err)
	}
	// The proof of possession covers the key and the instance ID, not
	// MRENCLAVE, so a flipped MRENCLAVE passes (and is charged) that
	// check before the quote signature refuses it.
	popCharge := core.CostSigVerify + uint64(len(popLabel)+32+16)*core.CostSHA256PerByte
	cases := []struct {
		name   string
		off    int
		charge uint64
	}{
		{"instance ID", len(certMagic) + 32, 0},
		{"MRENCLAVE", len(certMagic) + 32 + 16, popCharge},
		{"PopSig tail", CertSize - 1, 0},
	}
	entries := v.Stats().Entries
	for _, tc := range cases {
		fake := append([]byte(nil), raw...)
		fake[tc.off] ^= 1
		m := core.NewMeter()
		if _, err := v.Admit(m, fake, "relay"); !errors.Is(err, ErrRejected) {
			t.Fatalf("%s flip admitted (err=%v)", tc.name, err)
		}
		if m.Normal() != tc.charge {
			t.Fatalf("%s flip charged %d, want %d", tc.name, m.Normal(), tc.charge)
		}
		if got := v.Stats().Entries; got != entries {
			t.Fatalf("%s flip changed cache entries %d -> %d", tc.name, entries, got)
		}
	}
	m := core.NewMeter()
	warm := v.Stats().Warm
	if _, err := v.Admit(m, raw, "relay"); err != nil {
		t.Fatalf("genuine admit after look-alikes: %v", err)
	}
	if m.Normal() != core.CostQuoteCacheLookup || v.Stats().Warm != warm+1 {
		t.Fatalf("genuine admit charged %d (warm %d -> %d), want a warm hit at %d",
			m.Normal(), warm, v.Stats().Warm, core.CostQuoteCacheLookup)
	}
}

// TestRevocationEpoch: SetPolicy revokes cached verdicts — a peer
// admitted under the old whitelist is re-verified and rejected, and
// restoring the whitelist requires a fresh full verification.
func TestRevocationEpoch(t *testing.T) {
	r := newRig(t, "revoke")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 1)
	if _, err := v.Admit(core.NewMeter(), raw, "relay"); err != nil {
		t.Fatal(err)
	}
	v.SetPolicy(attest.Policy{AllowedEnclaves: []core.Measurement{{0xde}}, RejectDebug: true})
	m := core.NewMeter()
	if _, err := v.Admit(m, raw, "relay"); !errors.Is(err, ErrRejected) {
		t.Fatalf("revoked build admitted from cache (err=%v)", err)
	}
	v.SetPolicy(r.whitelist())
	m.Reset()
	if _, err := v.Admit(m, raw, "relay"); err != nil {
		t.Fatalf("re-admission after restore failed: %v", err)
	}
	if m.Normal() != coldCost() {
		t.Fatalf("post-revocation admit charged %d, want full %d (stale verdict must not warm-hit)",
			m.Normal(), coldCost())
	}
}

// warmGate launches a gate enclave over v and admits raw once, so the
// next admission of raw as "relay" is warm.
func warmGate(t testing.TB, r *rig, v *Verifier, raw []byte) (*core.Enclave, []byte) {
	t.Helper()
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	gate, err := r.plat.Launch(GateProgram(v), signer)
	if err != nil {
		t.Fatal(err)
	}
	arg := EncodeAdmit("relay", raw)
	if _, err := gate.Call(GateService, arg); err != nil {
		t.Fatal(err)
	}
	return gate, arg
}

// TestWarmAdmitAllocFree: a warm Verifier.Admit allocates nothing, and
// a warm gate ECALL over a pre-encoded argument allocates only its
// 64-byte reply.
func TestWarmAdmitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	r := newRig(t, "allocs")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 8)
	gate, arg := warmGate(t, r, v, raw)
	m := core.NewMeter()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := v.Admit(m, raw, "relay"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm Verifier.Admit made %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := gate.Call(GateService, arg); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("warm gate admit made %v allocs, want at most 1 (the reply)", n)
	}
}

// BenchmarkWarmAdmit times one warm admission, directly and through
// the gate enclave.
func BenchmarkWarmAdmit(b *testing.B) {
	r := newRig(b, "bench")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 8)
	gate, arg := warmGate(b, r, v, raw)
	b.Run("direct", func(b *testing.B) {
		m := core.NewMeter()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.Admit(m, raw, "relay"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gate.Call(GateService, arg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestShardedCacheConcurrent hammers one verifier from many goroutines
// (run under -race by the CI test job's go test -race ./...). Counters must balance and
// every admission must succeed.
func TestShardedCacheConcurrent(t *testing.T) {
	r := newRig(t, "concurrent")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	v := NewVerifier(r.whitelist(), 8)
	m := core.NewMeter()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := v.Admit(m, raw, "relay"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Cold+st.Warm != workers*per || st.Rejects != 0 {
		t.Fatalf("stats %+v, want cold+warm=%d rejects=0", st, workers*per)
	}
	// Racing first admissions may each verify cold, but never more than
	// one per goroutine.
	if st.Cold < 1 || st.Cold > workers {
		t.Fatalf("cold count %d outside [1,%d]", st.Cold, workers)
	}
	if want := st.Cold*coldCost() + st.Warm*core.CostQuoteCacheLookup; m.Normal() != want {
		t.Fatalf("meter %d, want %d (cold=%d warm=%d)", m.Normal(), want, st.Cold, st.Warm)
	}
}

// TestChannelKeys: both peers derive identical keys regardless of
// argument order, and the derived block drives a working record codec.
func TestChannelKeys(t *testing.T) {
	r := newRig(t, "channel")
	certA, _, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	signer, _ := core.NewSigner()
	other, err := r.plat.Launch(subjectProgram(), signer)
	if err != nil {
		t.Fatal(err)
	}
	certB, _, err := r.minter.Mint(other)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMeter()
	k1, err := ChannelKeys(m, certA.Pub, certB.Pub)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ChannelKeys(m, certB.Pub, certA.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("peers derived different channel keys")
	}
	client, server := tlslite.NewCodec(k1), tlslite.NewCodec(k2)
	rec, err := client.Seal(m, tlslite.ClientToServer, 1, []byte("attested payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Open(m, tlslite.ClientToServer, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "attested payload" {
		t.Fatalf("roundtrip produced %q", got)
	}
}

// TestGateProgram: an enclave-hosted verifier admits via ECALL, paying
// the EENTER/EEXIT crossing per connection on top of the verification.
func TestGateProgram(t *testing.T) {
	r := newRig(t, "gate")
	_, raw, err := r.minter.Mint(r.subject)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.whitelist(), 2)
	signer, _ := core.NewSigner()
	gate, err := r.plat.Launch(GateProgram(v), signer)
	if err != nil {
		t.Fatal(err)
	}
	gate.Meter().Reset()
	out, err := gate.Call(GateService, EncodeAdmit("relay", raw))
	if err != nil {
		t.Fatalf("gated cold admit: %v", err)
	}
	wantMR := r.subject.MREnclave()
	if string(out[:32]) != string(wantMR[:]) {
		t.Fatalf("gate returned wrong identity")
	}
	if sgx := gate.Meter().SGX(); sgx != 2 {
		t.Fatalf("cold gated admit used %d SGX(U), want 2 (EENTER+EEXIT)", sgx)
	}
	before := gate.Meter().Snapshot()
	if _, err := gate.Call(GateService, EncodeAdmit("relay", raw)); err != nil {
		t.Fatalf("gated warm admit: %v", err)
	}
	d := gate.Meter().Snapshot().Sub(before)
	if d.SGXU != 2 || d.Normal != core.CostQuoteCacheLookup {
		t.Fatalf("warm gated admit cost %d SGX(U) + %d normal, want 2 + %d",
			d.SGXU, d.Normal, core.CostQuoteCacheLookup)
	}
}
