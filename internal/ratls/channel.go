package ratls

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/tlslite"
)

// The attested-channel layer: once both peers' certificates are
// admitted, the channel keys are derived from the two attested channel
// keys. The asymmetric cost RA-TLS adds over vanilla TLS — and the cost
// this package's cache amortizes — is the quote verification in Admit;
// key derivation here is the symmetric tail of the handshake.

// channelHMACs is the number of HMAC invocations ChannelKeys models:
// one extract plus the four directional expansions.
const channelHMACs = 5

// ChannelKeys derives a tlslite key block for an attested channel from
// the two admitted certificate keys. Both peers derive identical keys
// (the inputs are ordered canonically), so either side can build the
// record codec. The derivation is metered as five HMACs over the key
// material.
func ChannelKeys(m *core.Meter, localPub, peerPub ed25519.PublicKey) (tlslite.Keys, error) {
	if len(localPub) != ed25519.PublicKeySize || len(peerPub) != ed25519.PublicKeySize {
		return tlslite.Keys{}, fmt.Errorf("ratls: bad channel key length")
	}
	lo, hi := localPub, peerPub
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	seed := make([]byte, 0, 24+2*ed25519.PublicKeySize)
	seed = append(seed, "sgxnet-ratls-master-v1"...)
	seed = append(seed, lo...)
	seed = append(seed, hi...)
	master := sha256.Sum256(seed)
	m.ChargeNormal(channelHMACs*core.CostHMAC + uint64(len(seed))*core.CostSHA256PerByte)

	expand := func(label string) []byte {
		h := hmac.New(sha256.New, master[:])
		h.Write([]byte(label))
		return h.Sum(nil)
	}
	var k tlslite.Keys
	copy(k.EncC2S[:], expand("ratls enc c2s"))
	copy(k.EncS2C[:], expand("ratls enc s2c"))
	copy(k.MacC2S[:], expand("ratls mac c2s"))
	copy(k.MacS2C[:], expand("ratls mac s2c"))
	return k, nil
}

// GateService is the ECALL name GateProgram serves admissions on.
const GateService = "ratls.admit"

// EncodeAdmit frames a gate ECALL argument: peerLen(2) ‖ peer ‖ cert.
func EncodeAdmit(peer string, cert []byte) []byte {
	out := make([]byte, 2, 2+len(peer)+len(cert))
	binary.LittleEndian.PutUint16(out, uint16(len(peer)))
	out = append(out, peer...)
	out = append(out, cert...)
	return out
}

// GateProgram hosts a verifier inside an enclave: each admission is one
// ECALL, so the verifying endpoint itself runs under SGX and every
// connection pays the EENTER/EEXIT crossing on top of the verification
// — the deployment shape of an SGX directory authority or controller.
// The handler returns MRENCLAVE ‖ MRSIGNER of the admitted peer.
func GateProgram(v *Verifier) *core.Program {
	return &core.Program{
		Name:    "ratls-gate",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			GateService: func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 2 {
					return nil, fmt.Errorf("ratls: short admit arg")
				}
				n := int(binary.LittleEndian.Uint16(arg[:2]))
				if len(arg) < 2+n {
					return nil, fmt.Errorf("ratls: truncated admit peer")
				}
				id, err := admit(v, env.Meter(), arg[2+n:], arg[2:2+n])
				if err != nil {
					return nil, err
				}
				out := make([]byte, 0, 64)
				out = append(out, id.MREnclave[:]...)
				out = append(out, id.MRSigner[:]...)
				return out, nil
			},
		},
	}
}
