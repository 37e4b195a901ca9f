package nfchain

import (
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/middlebox"
	"sgxnet/internal/tlslite"
)

// Stage is one network function in a chain. Process inspects and may
// mutate the packet in place; routing is not its job — the rule engine
// decides where the packet goes next. Stages take a bare Meter rather
// than a core.Env so the identical stage code runs both enclave-hosted
// (charged on the enclave meter, inside a chain.proc ECALL) and native
// (charged on a plain meter) — the sweep's native-vs-SGX comparison is
// then purely about hosting, never about divergent stage logic.
//
// Stages must follow the validate-then-charge discipline: work that
// fails its checks (a record that doesn't authenticate, a malformed
// header) must not charge for the work it refused to do.
type Stage interface {
	Name() string
	Process(m *core.Meter, p *Packet) error
}

// --- classify ---

type classifyStage struct{ name string }

// NewClassify returns the classification stage: tags packets by
// well-known destination port (443→tls, 80→http, 53→dns, else other).
func NewClassify(name string) Stage { return &classifyStage{name} }

func (s *classifyStage) Name() string { return s.name }

func (s *classifyStage) Process(m *core.Meter, p *Packet) error {
	m.ChargeNormal(core.CostChainClassify)
	switch p.DstPort {
	case 443:
		p.Tag = TagTLS
	case 80:
		p.Tag = TagHTTP
	case 53:
		p.Tag = TagDNS
	default:
		p.Tag = TagOther
	}
	return nil
}

// --- header filter ---

type filterStage struct {
	name string
	deny map[uint16]bool
}

// NewHeaderFilter returns the header-filter stage: packets to a denied
// destination port are tagged TagBlocked. The stage only tags — a
// `match tag=blocked -> drop` rule does the dropping, keeping policy in
// the rule table where it can be audited and fuzzed.
func NewHeaderFilter(name string, denyDst ...uint16) Stage {
	deny := make(map[uint16]bool, len(denyDst))
	for _, d := range denyDst {
		deny[d] = true
	}
	return &filterStage{name, deny}
}

func (s *filterStage) Name() string { return s.name }

func (s *filterStage) Process(m *core.Meter, p *Packet) error {
	m.ChargeNormal(core.CostChainFilter)
	if s.deny[p.DstPort] {
		p.Tag = TagBlocked
	}
	return nil
}

// --- DPI ---

type dpiStage struct {
	name  string
	dpi   *middlebox.DPI
	codec *tlslite.Codec
}

// NewDPIStage returns the deep-packet-inspection stage. It holds
// provisioned session keys (the mcTLS "middlebox gets read keys" model
// from internal/middlebox): a payload that authenticates as a tlslite
// record under those keys is decrypted and its plaintext scanned;
// anything else is scanned as-is (opaque traffic still passes the
// automaton, as a real IDS would run it over ciphertext). A pattern hit
// tags the packet TagMalware for the rule table to act on.
func NewDPIStage(name string, keys tlslite.Keys, patterns []string) (Stage, error) {
	d, err := middlebox.NewDPI(patterns)
	if err != nil {
		return nil, err
	}
	return &dpiStage{name, d, tlslite.NewCodec(keys)}, nil
}

func (s *dpiStage) Name() string { return s.name }

func (s *dpiStage) Process(m *core.Meter, p *Packet) error {
	data := p.Payload
	if _, _, plain, err := s.codec.OpenAny(m, p.Payload); err == nil {
		data = plain
	}
	m.ChargeNormal(core.CostChainScanPerByte * uint64(len(data)))
	if len(s.dpi.Scan(data)) > 0 {
		p.Tag = TagMalware
	}
	return nil
}

// --- transform ---

type transformStage struct {
	name    string
	srcPort uint16
	dstPort uint16
}

// NewTransform returns the header-rewrite stage (NAT-style): nonzero
// srcPort/dstPort arguments overwrite the corresponding header field.
// The payload is charged for the copy through the rewrite path but its
// bytes are never touched — a downstream stage must still be able to
// authenticate the record inside.
func NewTransform(name string, srcPort, dstPort uint16) Stage {
	return &transformStage{name, srcPort, dstPort}
}

func (s *transformStage) Name() string { return s.name }

func (s *transformStage) Process(m *core.Meter, p *Packet) error {
	m.ChargeNormal(core.CostChainRewritePerByte * uint64(packetHeaderLen+len(p.Payload)))
	if s.srcPort != 0 {
		p.SrcPort = s.srcPort
	}
	if s.dstPort != 0 {
		p.DstPort = s.dstPort
	}
	return nil
}

// --- re-encrypt ---

type reencryptStage struct {
	name string
	old  *tlslite.Codec
	next *tlslite.Codec
}

// NewReencrypt returns the key-rotation stage: a payload that
// authenticates as a record under the old keys is decrypted and
// re-sealed under the next keys with the same direction and sequence
// (tlslite IVs are deterministic in (dir, seq), so rotation is
// reproducible). Payloads that don't authenticate pass through
// unchanged — rejecting them is the rule table's decision, and the
// failed Open charges nothing (validate-then-charge).
func NewReencrypt(name string, old, next tlslite.Keys) Stage {
	return &reencryptStage{name, tlslite.NewCodec(old), tlslite.NewCodec(next)}
}

func (s *reencryptStage) Name() string { return s.name }

func (s *reencryptStage) Process(m *core.Meter, p *Packet) error {
	dir, seq, plain, err := s.old.OpenAny(m, p.Payload)
	if err != nil {
		return nil
	}
	resealed, err := s.next.Seal(m, dir, seq, plain)
	if err != nil {
		return fmt.Errorf("nfchain: re-encrypt %s: %w", s.name, err)
	}
	p.Payload = resealed
	return nil
}
