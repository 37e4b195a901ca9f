package tlslite

import (
	"encoding/binary"

	"sgxnet/internal/core"
	"sgxnet/internal/xcall"
)

// RecordEngine hosts a Codec inside an enclave: every seal/open is an
// enclave call, so the record crypto runs with the keys isolated from
// the untrusted endpoint process (the deployment §4.2 sketches for TLS
// terminators). Synchronously each record costs an EENTER/EEXIT pair
// on top of the crypto; with an xcall ring (Config non-nil) records
// are submitted switchlessly and the crossing amortizes over batches —
// the ablation eval.Runner.XcallSweep measures.
type RecordEngine struct {
	enc  *core.Enclave
	ring *xcall.CallRing
}

// engine entry-point argument: dir(1) ‖ seq(8) ‖ record bytes.
func engineArg(dir Direction, seq uint64, b []byte) []byte {
	arg := make([]byte, 9+len(b))
	arg[0] = byte(dir)
	binary.BigEndian.PutUint64(arg[1:9], seq)
	copy(arg[9:], b)
	return arg
}

// NewRecordEngine launches the record enclave on plat with the given
// key block. A nil xc keeps every record on the synchronous crossing;
// otherwise seal/open ride a call ring sized by *xc.
func NewRecordEngine(plat *core.Platform, signer *core.Signer, keys Keys, xc *xcall.Config) (*RecordEngine, error) {
	codec := NewCodec(keys)
	codec.Probe = plat.Probe()
	prog := &core.Program{
		Name:    "tls-record-engine",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"tls.seal": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 9 {
					return nil, ErrRecord
				}
				return codec.Seal(env.Meter(), Direction(arg[0]), binary.BigEndian.Uint64(arg[1:9]), arg[9:])
			},
			"tls.open": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 9 {
					return nil, ErrRecord
				}
				return codec.Open(env.Meter(), Direction(arg[0]), binary.BigEndian.Uint64(arg[1:9]), arg[9:])
			},
		},
	}
	enc, err := plat.Launch(prog, signer)
	if err != nil {
		return nil, err
	}
	e := &RecordEngine{enc: enc}
	if xc != nil {
		e.ring = xcall.NewCallRing(enc, *xc)
	}
	return e, nil
}

func (e *RecordEngine) call(fn string, arg []byte) ([]byte, error) {
	if e.ring != nil {
		return e.ring.Call(fn, arg)
	}
	return e.enc.Call(fn, arg)
}

// Seal seals one record inside the enclave.
func (e *RecordEngine) Seal(dir Direction, seq uint64, payload []byte) ([]byte, error) {
	return e.call("tls.seal", engineArg(dir, seq, payload))
}

// Open verifies and decrypts one record inside the enclave.
func (e *RecordEngine) Open(dir Direction, seq uint64, raw []byte) ([]byte, error) {
	return e.call("tls.open", engineArg(dir, seq, raw))
}

// Flush drains the engine's ring at a phase boundary (no-op when
// running synchronously).
func (e *RecordEngine) Flush() error {
	if e.ring == nil {
		return nil
	}
	return e.ring.Flush()
}

// XcallStats returns the ring tally (zero when running synchronously).
func (e *RecordEngine) XcallStats() xcall.Stats {
	if e.ring == nil {
		return xcall.Stats{}
	}
	return e.ring.Stats()
}

// Meter returns the engine enclave's meter.
func (e *RecordEngine) Meter() *core.Meter { return e.enc.Meter() }

// Enclave returns the underlying enclave (for attestation of the
// record engine by a peer).
func (e *RecordEngine) Enclave() *core.Enclave { return e.enc }
