package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Enclave construction and execution.

// EnclaveBuilder drives the ECREATE → EADD/EEXTEND → EINIT sequence.
type EnclaveBuilder struct {
	plat   *Platform
	id     EnclaveID
	m      *measurer
	pages  []int
	nPages int
	inited bool
}

// AddPage performs EADD + EEXTEND for one page of enclave content,
// charging the page-measurement cost to the host meter (enclave build is
// untrusted-side work; the paper excludes it from steady-state numbers but
// we still account it).
func (b *EnclaveBuilder) AddPage(linAddr uint64, typ PageType, perms PagePerms, content []byte) error {
	if b.inited {
		return errors.New("core: EADD after EINIT")
	}
	idx, err := b.plat.epc.Alloc(b.id, typ, linAddr, perms, content)
	if err != nil {
		return fmt.Errorf("core: EADD: %w", err)
	}
	b.pages = append(b.pages, idx)
	b.m.addPage(linAddr, typ, perms, content)
	b.nPages++
	b.plat.HostMeter.ChargeNormal(CostPageAdd)
	if h := b.plat.probe.Load(); h != nil {
		h.p.Observe(KindEADD, 1)
		h.p.Observe(KindEEXTEND, 16) // one EEXTEND per 256-byte chunk
		h.p.Observe(KindPageAdd, 1)
	}
	return nil
}

// AddProgram loads a program image: one TCS page per entry point plus REG
// pages holding the measured code image.
func (b *EnclaveBuilder) AddProgram(prog *Program) error {
	img := prog.Image()
	if err := b.AddPage(0, PageTCS, PermR|PermW, []byte("TCS0")); err != nil {
		return err
	}
	addr := uint64(PageSize)
	for off := 0; off < len(img); off += PageSize {
		end := off + PageSize
		if end > len(img) {
			end = len(img)
		}
		if err := b.AddPage(addr, PageREG, PermR|PermX, img[off:end]); err != nil {
			return err
		}
		addr += PageSize
	}
	// Data/heap pages (unmeasured content, measured metadata).
	for i := 0; i < 4; i++ {
		if err := b.AddPage(addr, PageREG, PermR|PermW, nil); err != nil {
			return err
		}
		addr += PageSize
	}
	return nil
}

// Measurement returns the MRENCLAVE accumulated so far.
func (b *EnclaveBuilder) Measurement() Measurement { return b.m.final() }

// EInit finalizes the enclave. The SIGSTRUCT must carry a valid signature
// over the accumulated measurement; MRSIGNER becomes the digest of the
// signing key. After EINIT no further pages can be added (SGX1: no EDMM).
func (b *EnclaveBuilder) EInit(prog *Program, ss SigStruct) (*Enclave, error) {
	if b.inited {
		return nil, errors.New("core: double EINIT")
	}
	mr := b.m.final()
	if ss.Measurement != mr {
		return nil, fmt.Errorf("core: EINIT: SIGSTRUCT measurement mismatch")
	}
	if !ed25519.Verify(ss.SignerPub, ss.Measurement[:], ss.Sig) {
		return nil, fmt.Errorf("core: EINIT: bad SIGSTRUCT signature")
	}
	b.inited = true
	b.plat.HostMeter.ChargeNormal(CostEnclaveInit)
	b.plat.observe(KindEINIT, 1)

	attrs := Attributes{Debug: ss.Debug}
	signer := sha256.Sum256(ss.SignerPub)
	if Measurement(signer) == b.plat.cfg.ArchSigner && !b.plat.cfg.ArchSigner.IsZero() {
		attrs.Architectural = true
	}

	e := &Enclave{
		id:        b.id,
		plat:      b.plat,
		prog:      prog,
		meter:     NewMeter(),
		mrenclave: mr,
		mrsigner:  Measurement(signer),
		attrs:     attrs,
		pages:     b.pages,
	}
	var keyID [16]byte
	if _, err := rand.Read(keyID[:]); err != nil {
		return nil, err
	}
	e.keyID = keyID
	e.env = Env{e: e}

	b.plat.mu.Lock()
	b.plat.enclaves[b.id] = e
	b.plat.mu.Unlock()

	if prog.Main != nil {
		if _, err := e.Call("", nil); err != nil {
			e.Destroy()
			return nil, fmt.Errorf("core: enclave main: %w", err)
		}
	}
	return e, nil
}

// SigStruct is the enclave signature structure checked by EINIT.
type SigStruct struct {
	Measurement Measurement
	SignerPub   ed25519.PublicKey
	Sig         []byte
	Debug       bool
}

// A Signer holds an enclave-signing key. Its MRSIGNER is the SHA-256 of
// the public key.
type Signer struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewSigner generates an enclave-signing keypair.
func NewSigner() (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Signer{pub: pub, priv: priv}, nil
}

// MRSigner returns the signer identity (digest of the public key).
func (s *Signer) MRSigner() Measurement { return sha256.Sum256(s.pub) }

// Public returns the signing public key.
func (s *Signer) Public() ed25519.PublicKey { return s.pub }

// Sign produces the SIGSTRUCT for a measured enclave.
func (s *Signer) Sign(m Measurement) SigStruct {
	return SigStruct{
		Measurement: m,
		SignerPub:   s.pub,
		Sig:         ed25519.Sign(s.priv, m[:]),
	}
}

// Host is the untrusted runtime's service surface, reached from inside an
// enclave through OCALLs. Implementations live outside the TCB; enclave
// code must treat results as untrusted input (Iago attacks, §6).
type Host interface {
	OCall(service string, arg []byte) ([]byte, error)
}

// HostFunc adapts a function to the Host interface.
type HostFunc func(service string, arg []byte) ([]byte, error)

// OCall implements Host.
func (f HostFunc) OCall(service string, arg []byte) ([]byte, error) { return f(service, arg) }

// ErrNoHost is returned for OCALLs when no host is bound.
var ErrNoHost = errors.New("core: no host bound to enclave")

// Enclave is a launched, measured, isolated execution container.
type Enclave struct {
	id        EnclaveID
	plat      *Platform
	prog      *Program
	meter     *Meter
	mrenclave Measurement
	mrsigner  Measurement
	attrs     Attributes
	keyID     [16]byte
	pages     []int

	// env is the handle every entry point receives. It holds only the
	// enclave pointer, so all calls share it instead of allocating one.
	env Env

	hostMu sync.RWMutex
	host   Host

	// switchlessOCalls suppresses the EEXIT/ERESUME charge in Env.OCall:
	// the enclave's OCALLs ride a shared-memory ring (internal/xcall)
	// whose drains account the amortized crossings instead.
	switchlessOCalls atomic.Bool

	// inside counts threads in Call or SwitchlessCall (see WaitIdle).
	inside atomic.Int64

	destroyed sync.Once
	dead      bool
}

// ID returns the enclave's platform-local identifier.
func (e *Enclave) ID() EnclaveID { return e.id }

// Platform returns the platform the enclave runs on.
func (e *Enclave) Platform() *Platform { return e.plat }

// MREnclave returns the enclave's content measurement.
func (e *Enclave) MREnclave() Measurement { return e.mrenclave }

// MRSigner returns the enclave's signer identity.
func (e *Enclave) MRSigner() Measurement { return e.mrsigner }

// Attrs returns the enclave attributes.
func (e *Enclave) Attrs() Attributes { return e.attrs }

// Program returns the loaded program.
func (e *Enclave) Program() *Program { return e.prog }

// Meter returns the enclave's instruction meter.
func (e *Enclave) Meter() *Meter { return e.meter }

// BindHost attaches the untrusted host services used by OCALLs.
func (e *Enclave) BindHost(h Host) {
	e.hostMu.Lock()
	e.host = h
	e.hostMu.Unlock()
}

// Call performs EENTER into the named entry point and returns its result
// after EEXIT. An empty name invokes the program's Main. Call charges the
// EENTER/EEXIT pair to the enclave meter.
func (e *Enclave) Call(fn string, arg []byte) ([]byte, error) {
	h, err := e.entry(fn)
	if err != nil {
		return nil, err
	}
	e.inside.Add(1)
	e.meter.ChargeSGX(1) // EENTER
	if hp := e.plat.probe.Load(); hp != nil {
		hp.p.Observe(KindEENTER, 1)
		hp.p.Observe(KindEnclaveCall, 1)
	}
	out, err := h(&e.env, arg)
	e.meter.ChargeSGX(1) // EEXIT
	e.plat.observe(KindEEXIT, 1)
	e.inside.Add(-1)
	return out, err
}

// WaitIdle blocks until no thread is inside the enclave. A handler can
// hand its reply to the untrusted host (an OCALL send) and keep charging
// afterwards — a cost top-up, then the EEXIT Call charges on return — so
// a peer can hold the reply before the enclave has charged for it. A
// driver that snapshots meters between exchanges calls WaitIdle first;
// once the peer holds the reply, the exchange's call has entered, so
// after WaitIdle its every charge is on the meter.
func (e *Enclave) WaitIdle() {
	for e.inside.Load() > 0 {
		runtime.Gosched()
	}
}

// SwitchlessCall invokes an entry point without the EENTER/EEXIT pair:
// the descriptor reached the enclave through a shared-memory ring
// (internal/xcall) and an already-resident worker dispatches it, so no
// crossing happens here. The ring charges the modeled ring operations
// and the per-batch amortized crossing; handler work still lands on the
// enclave meter as usual. Callers must not use this to bypass crossing
// accounting outside the xcall subsystem.
func (e *Enclave) SwitchlessCall(fn string, arg []byte) ([]byte, error) {
	h, err := e.entry(fn)
	if err != nil {
		return nil, err
	}
	e.inside.Add(1)
	defer e.inside.Add(-1)
	return h(&e.env, arg)
}

// entry resolves an entry-point name (empty = Main) against the program.
func (e *Enclave) entry(fn string) (Handler, error) {
	if e.dead {
		return nil, fmt.Errorf("core: enclave %d destroyed", e.id)
	}
	var h Handler
	if fn == "" {
		h = e.prog.Main
	} else {
		h = e.prog.Handlers[fn]
	}
	if h == nil {
		return nil, fmt.Errorf("core: enclave %q has no entry point %q", e.prog.Name, fn)
	}
	return h, nil
}

// SetSwitchlessOCalls toggles switchless OCALL accounting: when on,
// Env.OCall stops charging the EEXIT/ERESUME pair (and stops reporting
// the crossing kinds) because the enclave's host requests ride an xcall
// ring that accounts amortized crossings at drain time. The dispatch
// itself is unchanged — only who pays for the boundary moves.
func (e *Enclave) SetSwitchlessOCalls(on bool) { e.switchlessOCalls.Store(on) }

// Destroy frees the enclave's EPC pages (EREMOVE) and deregisters it. A
// destroyed enclave rejects further calls — the host can always do this
// (denial of service is in the host's power) but can never alter behaviour.
func (e *Enclave) Destroy() {
	e.destroyed.Do(func() {
		e.dead = true
		e.plat.remove(e.id)
	})
}

// Env is the trusted-side view a handler receives: metered computation,
// host OCALLs, and the SGX key/report instructions.
type Env struct {
	e *Enclave
}

// Enclave returns the executing enclave.
func (env *Env) Enclave() *Enclave { return env.e }

// Meter returns the enclave meter (for charging modelled work).
func (env *Env) Meter() *Meter { return env.e.meter }

// ChargeNormal records modelled normal-instruction work.
func (env *Env) ChargeNormal(n uint64) { env.e.meter.ChargeNormal(n) }

// OCall leaves the enclave (EEXIT), invokes the untrusted host service,
// and re-enters (ERESUME). The two ENCLU instructions are charged here;
// services charge their own payload costs.
func (env *Env) OCall(service string, arg []byte) ([]byte, error) {
	env.e.hostMu.RLock()
	h := env.e.host
	env.e.hostMu.RUnlock()
	if h == nil {
		return nil, ErrNoHost
	}
	if !env.e.switchlessOCalls.Load() {
		env.e.meter.ChargeSGX(2) // EEXIT + ERESUME
		if hp := env.e.plat.probe.Load(); hp != nil {
			hp.p.Observe(KindEEXIT, 1)
			hp.p.Observe(KindERESUME, 1)
			hp.p.Observe(KindEnclaveOCall, 1)
		}
	}
	return h.OCall(service, arg)
}

// Alloc models in-enclave dynamic memory allocation. SGX1 cannot grow the
// heap without an enclave round-trip, which the paper identifies as a main
// source of Table 4's overhead; each call charges that surcharge.
func (env *Env) Alloc(n int) []byte {
	env.ChargeAllocs(1)
	return make([]byte, n)
}

// ChargeAllocs records n in-enclave dynamic allocations without
// materializing buffers — used by application code that tracks its
// allocation count in bulk (e.g. one allocation per adopted route).
func (env *Env) ChargeAllocs(n uint64) {
	env.e.meter.ChargeSGX(n * SGXInstEnclaveAlloc)
	env.e.meter.ChargeNormal(n * CostEnclaveAllocFixed)
	env.e.plat.observe(KindEnclaveAlloc, n)
}

// KeyName selects which key EGETKEY derives.
type KeyName string

const (
	// KeyReport is the key used to MAC reports targeted at this enclave.
	KeyReport KeyName = "report"
	// KeySeal is bound to MRSIGNER: any enclave from the same signer on
	// this platform derives the same sealing key.
	KeySeal KeyName = "seal"
	// KeySealEnclave is bound to MRENCLAVE.
	KeySealEnclave KeyName = "seal-enclave"
)

// GetKey executes EGETKEY, deriving a key bound to this platform and (per
// key name) this enclave's identity.
func (env *Env) GetKey(name KeyName) ([32]byte, error) {
	env.e.meter.ChargeSGX(1) // EGETKEY
	env.e.plat.observe(KindEGETKEY, 1)
	switch name {
	case KeyReport:
		return env.e.plat.deriveKey("report", env.e.mrenclave), nil
	case KeySeal:
		return env.e.plat.deriveKey("seal", env.e.mrsigner), nil
	case KeySealEnclave:
		return env.e.plat.deriveKey("seal-enclave", env.e.mrenclave), nil
	default:
		return [32]byte{}, fmt.Errorf("core: EGETKEY: unknown key name %q", name)
	}
}

// AttestationKey returns the platform attestation private key — only for
// architectural enclaves (the quoting enclave).
func (env *Env) AttestationKey() (ed25519.PrivateKey, error) {
	return env.e.plat.attestationKeyFor(env.e)
}
