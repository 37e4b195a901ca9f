package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/nfchain"
	"sgxnet/internal/ratls"
	"sgxnet/internal/tlslite"
)

// nfchain-imix: the chain sweep's depth-8 layout at batch 64 with a
// 4096-entry rule table, admitted through one shared RA-TLS verifier,
// carrying seeded IMIX traffic. One round is chainRound packets, fed one
// Process call at a time with a Flush after every chainBatch packets.
const (
	chainFlows    = 10000
	chainRules    = 4096
	chainBatch    = 64
	chainRound    = 4096 // packets per round, replayed every round
	chainDenyMod  = 20   // one flow rank in chainDenyMod carries a deny rule (5%)
	chainDPIEvery = 8    // one packet in chainDPIEvery carries a DPI pattern
	chainZipfS    = 1.1
	chainTraced   = 2 // rounds in the traced phase
)

var (
	chainPorts    = [4]uint16{443, 80, 53, 23}
	chainPatterns = []string{"malware", "exfiltrate"}
	// imixBlock is one IMIX period: 64/576/1400-byte plaintexts in the
	// ratio 7:4:1.
	imixBlock = []int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1400}
	// chainBaseRules are the meaningful rules; they follow the per-flow
	// deny rules, so the engine walks the whole table to reach them.
	chainBaseRules = []string{
		"at classify match proto=17 -> forward:dpi", // UDP skips the filter
		"at classify match tag=dns -> mirror:dpi",   // DNS over TCP is audited out of band
		"at filter match tag=blocked -> drop",
		"at dpi match tag=malware -> drop",
		"at dpi2 match tag=malware -> drop",
	}
)

// chainKeys returns the session keys of key generation g.
func chainKeys(g byte) tlslite.Keys {
	var k tlslite.Keys
	for i := 0; i < 16; i++ {
		k.EncC2S[i] = byte(i) + g
		k.EncS2C[i] = byte(i+16) + g
	}
	for i := 0; i < 32; i++ {
		k.MacC2S[i] = byte(i+32) + g
		k.MacS2C[i] = byte(i+64) + g
	}
	return k
}

// newStages builds the depth-8 layout: DPI under generation 0, rotate
// 0→1, DPI under generation 1, rotate 1→2. wrap, when non-nil, wraps
// each stage (the traced run's span recorder).
func newStages(wrap func(i int, s nfchain.Stage) nfchain.Stage) ([]nfchain.Stage, error) {
	d0, err := nfchain.NewDPIStage("dpi", chainKeys(0), chainPatterns)
	if err != nil {
		return nil, err
	}
	d1, err := nfchain.NewDPIStage("dpi2", chainKeys(1), chainPatterns)
	if err != nil {
		return nil, err
	}
	st := []nfchain.Stage{
		nfchain.NewClassify("classify"),
		nfchain.NewHeaderFilter("filter", 23),
		d0,
		nfchain.NewTransform("nat", 55555, 0),
		nfchain.NewReencrypt("reencrypt", chainKeys(0), chainKeys(1)),
		d1,
		nfchain.NewTransform("nat2", 55556, 0),
		nfchain.NewReencrypt("reencrypt2", chainKeys(1), chainKeys(2)),
	}
	if wrap != nil {
		for i := range st {
			st[i] = wrap(i, st[i])
		}
	}
	return st, nil
}

// chainInputs is one round of traffic plus the rule table.
type chainInputs struct {
	pkts    []nfchain.Packet
	plain   [][]byte // each packet's plaintext, for the tlslite replay
	rules   string
	denyPos []int // table positions of the rules that deny a real flow
}

// genChain builds the inputs from the seed. Flow ranks are Zipf(s=1.1)
// over chainFlows flows; a flow's port and protocol follow its rank, its
// id comes from a seeded permutation. Ranks 20k+10+(k mod 4), which
// cycle through all four ports, get a deny rule at a seeded table
// position among the rules before the meaningful ones. IMIX
// sizes come in shuffled periods of 12, DPI patterns in one seeded slot
// per 8 packets, and every plaintext is sealed under generation-0 keys
// with the packet index as record sequence number.
func genChain(seed int64) (*chainInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(chainFlows)
	z := rand.NewZipf(rng, chainZipfS, 1, chainFlows-1)

	slots := chainRules - len(chainBaseRules)
	lines := make([]string, slots, chainRules)
	for i := range lines {
		lines[i] = fmt.Sprintf("at classify match flow=%d -> drop", 10_000_000+i)
	}
	in := &chainInputs{}
	pos := rng.Perm(slots)
	for k := 0; chainDenyMod*k+chainDenyMod/2+k%4 < chainFlows; k++ {
		rank := chainDenyMod*k + chainDenyMod/2 + k%4
		lines[pos[k]] = fmt.Sprintf("at classify match flow=%d -> drop", ids[rank])
		in.denyPos = append(in.denyPos, pos[k])
	}
	in.rules = strings.Join(append(lines, chainBaseRules...), "\n")

	codec := tlslite.NewCodec(chainKeys(0))
	scratch := core.NewMeter()
	block := append([]int(nil), imixBlock...)
	dpiAt := 0
	for i := 0; i < chainRound; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		if i%chainDPIEvery == 0 {
			dpiAt = i + rng.Intn(chainDPIEvery)
		}
		rank := int(z.Uint64())
		dst := chainPorts[rank%4]
		proto := uint8(6)
		if dst == 53 && (rank/4)%2 == 0 {
			proto = 17
		}
		plain := make([]byte, block[i%len(block)])
		rng.Read(plain)
		if i == dpiAt {
			pat := chainPatterns[rng.Intn(len(chainPatterns))]
			copy(plain[rng.Intn(len(plain)-len(pat)+1):], pat)
		}
		rec, err := codec.Seal(scratch, tlslite.ClientToServer, uint64(i), plain)
		if err != nil {
			return nil, err
		}
		in.plain = append(in.plain, plain)
		in.pkts = append(in.pkts, nfchain.Packet{
			Flow:    uint32(ids[rank]),
			SrcPort: uint16(1024 + rank),
			DstPort: dst,
			Proto:   proto,
			Payload: rec,
		})
	}
	return in, nil
}

// outcome is one packet's effect on the chain's accounting.
type outcome struct{ hops, delivered, dropped, mirrored, alerts uint64 }

func outcomeOf(after, before nfchain.Stats) outcome {
	return outcome{
		hops:      after.Processed - before.Processed,
		delivered: after.Delivered - before.Delivered,
		dropped:   after.Dropped - before.Dropped,
		mirrored:  after.Mirrored - before.Mirrored,
		alerts:    after.Alerts - before.Alerts,
	}
}

// reference is the native twin's verdict on one round.
type reference struct {
	want  []outcome // per packet
	stats nfchain.Stats
	tally core.Tally
}

// nativeReference runs the round through nfchain.NewNative: the same
// stages and rules without enclaves.
func nativeReference(in *chainInputs) (*reference, error) {
	st, err := newStages(nil)
	if err != nil {
		return nil, err
	}
	rs, err := nfchain.CompileText(in.rules, stageNames)
	if err != nil {
		return nil, err
	}
	n, err := nfchain.NewNative(st, rs, core.NewMeter(), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	ref := &reference{want: make([]outcome, len(in.pkts))}
	for i := range in.pkts {
		before := n.Stats()
		p := in.pkts[i]
		if err := n.Process(&p); err != nil {
			return nil, fmt.Errorf("native packet %d: %w", i, err)
		}
		ref.want[i] = outcomeOf(n.Stats(), before)
	}
	ref.stats, ref.tally = n.Stats(), n.Tally()
	return ref, nil
}

// sink is the benchmark-owned egress receiver. Egress sends complete
// inside Process (the OCALL ring dispatches synchronously), so after
// every burst the driver drains the burst's egress from the sink ends of
// the per-stage connections, counting it per packet index (the record
// sequence number, which re-encryption preserves).
type sink struct {
	conns      []*netsim.Conn // sink ends, in stage order
	perPkt     []uint32
	pkts, size uint64
	misrouted  bool     // egress was missing from the last stage's connection
	tr         *tracer  // the driver's, when tracing
	keep       [][]byte // first egress packets, for the netsim replay (traced runs)
}

// recv receives one egress packet from c and counts it.
func (s *sink) recv(c *netsim.Conn, timeout time.Duration) error {
	sp := s.tr.begin("sink.Recv", -1)
	p, err := c.RecvTimeout(timeout)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	// nfchain header (14) ‖ record: dir(1) ‖ seq(8) ‖ …
	if len(p) < 23 {
		return nil
	}
	seq := binary.BigEndian.Uint64(p[15:23])
	if s.tr != nil {
		s.tr.spans[sp].Op = int64(seq)
		if len(s.keep) < 512 {
			s.keep = append(s.keep, p)
		}
	}
	if seq < uint64(len(s.perPkt)) {
		s.perPkt[seq]++
	}
	s.pkts++
	s.size += uint64(len(p))
	return nil
}

// drainBurst receives a burst's n egress packets. The chain's rules
// terminate packets only at the last stage, so they wait, already sent,
// on its connection. Should one be missing there, egress has left
// through another stage, and from then on every burst drains every
// connection, so no connection's buffer fills and blocks the chain.
func (s *sink) drainBurst(n uint64) {
	last := s.conns[len(s.conns)-1]
	for i := uint64(0); i < n && !s.misrouted; i++ {
		s.misrouted = s.recv(last, time.Second) != nil
	}
	if s.misrouted {
		s.drainAll(10 * time.Millisecond)
	}
}

// drainAll receives from every connection until each has been idle for
// wait; a closed connection returns at once when empty.
func (s *sink) drainAll(wait time.Duration) {
	for _, c := range s.conns {
		for s.recv(c, wait) == nil {
		}
	}
}

// chainRig is the system under test plus its sink.
type chainRig struct {
	chain *nfchain.Chain
	rules *nfchain.RuleSet
	conns []*netsim.Conn
	l     *netsim.Listener
	sink  *sink
}

// chainHead is the chain-head build whose certificate every hop admits.
func chainHead() *core.Program {
	prog := &core.Program{
		Name:    "sgxbench-chain-head",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
		},
	}
	ratls.AddSubjectHandlers(prog)
	return prog
}

// newChainRig creates the platform and network, compiles the rules,
// launches the chain, admits the head certificate at every hop through
// one shared verifier (1 cold + 7 warm), and connects the sink.
func newChainRig(seed int64, in *chainInputs, stages []nfchain.Stage) (*chainRig, error) {
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	plat, err := core.NewPlatform("sgxbench-chain", core.PlatformConfig{
		EPCFrames: 2048, ArchSigner: arch.MRSigner(), Seed: []byte(fmt.Sprintf("sgxbench/chain/%d", seed)),
	})
	if err != nil {
		return nil, err
	}
	net := netsim.New()
	host, err := net.AddHostWithPlatform("chain", plat)
	if err != nil {
		return nil, err
	}
	sinkHost, err := net.AddHost("sink", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return nil, err
	}
	r := &chainRig{sink: &sink{perPkt: make([]uint32, len(in.pkts))}}
	if r.l, err = sinkHost.Listen("sink"); err != nil {
		return nil, err
	}
	if r.rules, err = nfchain.CompileText(in.rules, stageNames); err != nil {
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
	headProg := chainHead()
	head, err := plat.Launch(headProg, signer)
	if err != nil {
		return nil, err
	}
	_, cert, err := mt.Mint(head)
	if err != nil {
		return nil, err
	}
	v := ratls.NewVerifier(attest.Policy{
		AllowedEnclaves: []core.Measurement{core.MeasureProgram(headProg)},
		RejectDebug:     true,
	}, 1)
	r.chain, err = nfchain.New(host, nfchain.Config{
		Stages:   stages,
		Rules:    r.rules,
		Batch:    chainBatch,
		Verifier: v,
		Signer:   signer,
		Egress: func() (*netsim.Conn, error) {
			c, err := host.Dial("sink", "sink")
			if err != nil {
				return nil, err
			}
			peer, err := r.l.Accept()
			if err != nil {
				return nil, err
			}
			r.conns = append(r.conns, c)
			r.sink.conns = append(r.sink.conns, peer)
			return c, nil
		},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if _, err := r.chain.Admit("chain-head", cert); err != nil {
		r.close()
		return nil, err
	}
	if st := v.Stats(); st.Cold != 1 || st.Warm != uint64(len(stages)-1) {
		r.close()
		return nil, fmt.Errorf("chain admission took %d cold + %d warm verifications, want 1 + %d", st.Cold, st.Warm, len(stages)-1)
	}
	r.chain.ResetMeters()
	return r, nil
}

// close closes the egress connections (both ends) and the listener.
func (r *chainRig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.l.Close()
}

// roundRun is one measured round.
type roundRun struct {
	dur     time.Duration
	tally   core.Tally
	flushes int
	bad     int64
}

// round feeds the round's packets, checking each packet's outcome
// against the native reference.
func (r *chainRig) round(in *chainInputs, ref *reference, tr *tracer, opBase int64) (roundRun, error) {
	var rr roundRun
	r.sink.tr = tr
	delivered := r.chain.Stats().Delivered
	t0 := time.Now()
	for i := range in.pkts {
		p := in.pkts[i]
		before := r.chain.Stats()
		sp := tr.begin("Chain.Process", opBase+int64(i))
		err := r.chain.Process(&p)
		tr.end(sp)
		if err != nil || outcomeOf(r.chain.Stats(), before) != ref.want[i] {
			rr.bad++
		}
		if (i+1)%chainBatch == 0 {
			sp := tr.begin("Chain.Flush", opBase+int64(i))
			err := r.chain.Flush()
			tr.end(sp)
			if err != nil {
				return rr, fmt.Errorf("flush: %w", err)
			}
			rr.flushes++
			now := r.chain.Stats().Delivered
			r.sink.drainBurst(now - delivered)
			delivered = now
		}
	}
	rr.dur = time.Since(t0)
	rr.tally = r.chain.Tally()
	r.chain.ResetMeters()
	return rr, nil
}

// rounds runs rounds for budget seconds (at least one; exactly n when
// n > 0), holding every round to the first round's modeled tally.
func (r *chainRig) rounds(ck *checks, in *chainInputs, ref *reference, budget float64, n int, tr *tracer) ([]roundRun, error) {
	var runs []roundRun
	start := time.Now()
	for len(runs) == 0 || (n > 0 && len(runs) < n) || (n == 0 && time.Since(start).Seconds() < budget) {
		rr, err := r.round(in, ref, tr, int64(len(runs)*len(in.pkts)))
		if err != nil {
			return nil, err
		}
		runs = append(runs, rr)
		ck.op(int64(len(in.pkts)), rr.bad)
		if rr.tally != runs[0].tally {
			ck.fail("nfchain-imix: round %d charged %v, round 0 charged %v", len(runs)-1, rr.tally, runs[0].tally)
		}
	}
	return runs, nil
}

// verifyEgress closes the rig, collects any egress left on the
// connections, and holds the sink's count to the chain's deliveries and
// its egress per packet index to the native reference: a missing or
// extra egress packet is a wrong outcome.
func (r *chainRig) verifyEgress(ck *checks, ref *reference, rounds int) {
	r.close()
	r.sink.drainAll(0)
	if got, delivered := r.sink.pkts, r.chain.Stats().Delivered; got != delivered {
		ck.fail("nfchain-imix: sink received %d egress packets, chain delivered %d", got, delivered)
	}
	var bad int64
	for i := range r.sink.perPkt {
		got, want := int64(r.sink.perPkt[i]), int64(ref.want[i].delivered)*int64(rounds)
		if got != want {
			bad += max(got-want, want-got)
		}
	}
	if bad > 0 {
		ck.op(0, bad)
		ck.fail("nfchain-imix: %d egress packets differ from the native reference", bad)
	}
}

// checkParity holds the chain's lifetime accounting to rounds × the
// native reference's.
func (r *chainRig) checkParity(ck *checks, ref *reference, rounds int) {
	got, n := r.chain.Stats(), uint64(rounds)
	want := ref.stats
	if got.Processed != n*want.Processed || got.Delivered != n*want.Delivered || got.Dropped != n*want.Dropped ||
		got.Mirrored != n*want.Mirrored || got.Alerts != n*want.Alerts {
		ck.fail("nfchain-imix: chain stats %+v over %d rounds, native reference %+v per round", got, rounds, want)
	}
}

func timedChain(cfg config, ck *checks) (map[string]metric, error) {
	in, err := genChain(cfg.seed)
	if err != nil {
		return nil, err
	}
	var rig *chainRig
	setup, err := timeSetup(func() {
		if rig != nil {
			rig.close()
			rig = nil
		}
	}, func() error {
		st, err := newStages(nil)
		if err != nil {
			return err
		}
		rig, err = newChainRig(cfg.seed, in, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	ref, err := nativeReference(in)
	if err != nil {
		return nil, err
	}
	h0 := readHeap()
	runs, err := rig.rounds(ck, in, ref, cfg.seconds, 0, nil)
	if err != nil {
		return nil, err
	}
	h := readHeap().since(h0)
	mem := retainedMB() // the rig is still in use below
	rig.checkParity(ck, ref, len(runs))
	rig.verifyEgress(ck, ref, len(runs))

	rates := make([]float64, len(runs))
	for i, rr := range runs {
		rates[i] = float64(len(in.pkts)) / rr.dur.Seconds()
	}
	ms := map[string]metric{}
	set(ms, "setup_s", setup)
	set(ms, "ops_per_s", median(rates))
	set(ms, "alloc_bytes_per_op", float64(h.bytes)/float64(len(runs)*len(in.pkts)))
	set(ms, "mem_peak_mb", mem)
	set(ms, "sgx_cycles_per_op", float64(runs[0].tally.Cycles())/float64(len(in.pkts)))
	return ms, nil
}

// tracedStage records a span around the wrapped stage's Process and the
// rule engine's input (the stage's output header) for the replay.
type tracedStage struct {
	nfchain.Stage
	idx  int
	span string
	tr   *tracer
	hops *[]hopInput
}

// hopInput is one rule evaluation's input: stage index and header.
type hopInput struct {
	stage int
	pkt   nfchain.Packet
}

func (s *tracedStage) Process(m *core.Meter, p *nfchain.Packet) error {
	sp := s.tr.begin(s.span, -1)
	err := s.Stage.Process(m, p)
	s.tr.end(sp)
	if s.hops != nil && len(*s.hops) < 1<<16 {
		h := *p
		h.Payload = nil
		*s.hops = append(*s.hops, hopInput{s.idx, h})
	}
	return err
}

// chainLayers measures the nfchain, xcall, tlslite and netsim layers on
// nfchain-imix. When nfchain-imix is the traced run's workload it also
// reports the untraced versus traced overhead, the GC share and the core
// per-op counts.
func chainLayers(cfg config, ck *checks, ms map[string]metric, named bool) error {
	in, err := genChain(cfg.seed)
	if err != nil {
		return err
	}
	ref, err := nativeReference(in)
	if err != nil {
		return err
	}
	set(ms, "nfchain.native_cycles_per_op", float64(ref.tally.Cycles())/float64(len(in.pkts)))

	var untraced []roundRun
	if named {
		st, err := newStages(nil)
		if err != nil {
			return err
		}
		rig, err := newChainRig(cfg.seed, in, st)
		if err != nil {
			return err
		}
		c0 := readCPU()
		untraced, err = rig.rounds(ck, in, ref, cfg.seconds/2, 0, nil)
		set(ms, "go.gc_cpu_frac", gcFrac(c0, readCPU()))
		if err == nil {
			rig.checkParity(ck, ref, len(untraced))
			rig.verifyEgress(ck, ref, len(untraced))
		}
		rig.close()
		if err != nil {
			return err
		}
	}

	tr := newTracer(time.Now())
	var hops []hopInput
	st, err := newStages(func(i int, s nfchain.Stage) nfchain.Stage {
		return &tracedStage{Stage: s, idx: i, span: "stage." + s.Name(), tr: tr, hops: &hops}
	})
	if err != nil {
		return err
	}
	rig, err := newChainRig(cfg.seed, in, st)
	if err != nil {
		return err
	}
	defer rig.close()
	x0 := rig.chain.XcallStats()
	runs, err := rig.rounds(ck, in, ref, 0, chainTraced, tr)
	if err != nil {
		return err
	}
	rig.checkParity(ck, ref, len(runs))
	rig.verifyEgress(ck, ref, len(runs))
	stats, xs := rig.chain.Stats(), rig.chain.XcallStats()
	pkts := float64(len(runs) * len(in.pkts))
	flushes := 0
	var tally core.Tally
	for _, rr := range runs {
		flushes += rr.flushes
		tally = tally.Add(rr.tally)
	}

	lt := selfTimes(tr)
	set(ms, "nfchain.pkt_ns", lt["Chain.Process"].meanTotal())
	set(ms, "nfchain.flush_us", lt["Chain.Flush"].meanTotal()/1e3)
	for _, s := range stageNames {
		set(ms, "nfchain.stage_ns."+s, lt["stage."+s].meanSelf())
	}
	set(ms, "nfchain.rules_examined_per_hop", ratio(float64(stats.RulesExamined), float64(stats.Processed)))
	set(ms, "nfchain.rule_cycle_share", ratio(float64(core.CyclesOf(0, stats.RulesExamined*core.CostRuleEval)), float64(tally.Cycles())))
	set(ms, "nfchain.hops_per_pkt", float64(stats.Processed)/pkts)
	set(ms, "nfchain.drop_frac", float64(stats.Dropped)/pkts)
	set(ms, "nfchain.mirror_frac", float64(stats.Mirrored)/pkts)
	set(ms, "nfchain.alert_frac", float64(stats.Alerts)/pkts)
	set(ms, "xcall.drains_per_pkt", float64(xs.Drains-x0.Drains)/pkts)
	set(ms, "xcall.descs_per_drain", ratio(float64(xs.Drained-x0.Drained), float64(xs.Drains-x0.Drains)))
	set(ms, "xcall.fallbacks_per_pkt", float64(xs.Fallbacks-x0.Fallbacks)/pkts)
	set(ms, "xcall.parks", float64(xs.Parks-x0.Parks)/float64(len(runs)))
	sk := rig.sink
	set(ms, "netsim.egress_pkts_per_batch", float64(sk.pkts)/float64(flushes))
	set(ms, "netsim.egress_bytes_per_pkt", ratio(float64(sk.size), float64(sk.pkts)))

	if named {
		set(ms, "core.sgx_u_per_op", float64(runs[0].tally.SGXU)/float64(len(in.pkts)))
		set(ms, "core.normal_per_op", float64(runs[0].tally.Normal)/float64(len(in.pkts)))
		u := make([]float64, len(untraced))
		for i, rr := range untraced {
			u[i] = float64(rr.dur)
		}
		t := make([]float64, len(runs))
		for i, rr := range runs {
			t[i] = float64(rr.dur)
		}
		set(ms, "trace_overhead_frac", median(t)/median(u)-1)
	}

	if err := replayRules(ms, rig.rules, hops); err != nil {
		return err
	}
	if err := replayRecords(ms, in); err != nil {
		return err
	}
	if err := replaySends(ms, sk.keep); err != nil {
		return err
	}
	return writeSpans(cfg.out, "nfchain-imix", tr)
}

// replayRules times RuleSet.Evaluate over the traced round's own hop
// inputs.
func replayRules(ms map[string]metric, rs *nfchain.RuleSet, hops []hopInput) error {
	if len(hops) == 0 {
		return fmt.Errorf("no rule evaluations recorded")
	}
	m := core.NewMeter()
	d, err := timeReps(3, func() error {
		for i := range hops {
			rs.Evaluate(m, hops[i].stage, &hops[i].pkt)
		}
		return nil
	})
	set(ms, "nfchain.rule_eval_ns", float64(d)/float64(len(hops)))
	return err
}

// replayRecords times tlslite Seal and Open per IMIX size over the
// round's own plaintexts and records, and counts allocations per record
// (one seal plus one open).
func replayRecords(ms map[string]metric, in *chainInputs) error {
	codec := tlslite.NewCodec(chainKeys(0))
	m := core.NewMeter()
	for _, size := range imixSizes {
		var idx []int
		for i, p := range in.plain {
			if len(p) == size {
				idx = append(idx, i)
			}
		}
		seal, err := timeReps(3, func() error {
			for _, i := range idx {
				if _, err := codec.Seal(m, tlslite.ClientToServer, uint64(i), in.plain[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		open, err := timeReps(3, func() error {
			for _, i := range idx {
				if _, err := codec.Open(m, tlslite.ClientToServer, uint64(i), in.pkts[i].Payload); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		set(ms, "tlslite.seal_ns."+fmt.Sprint(size), float64(seal)/float64(len(idx)))
		set(ms, "tlslite.open_ns."+fmt.Sprint(size), float64(open)/float64(len(idx)))
	}
	h0 := readHeap()
	for i := range in.plain {
		if _, err := codec.Seal(m, tlslite.ClientToServer, uint64(i), in.plain[i]); err != nil {
			return err
		}
		if _, err := codec.Open(m, tlslite.ClientToServer, uint64(i), in.pkts[i].Payload); err != nil {
			return err
		}
	}
	set(ms, "tlslite.allocs_per_record", float64(readHeap().since(h0).objects)/float64(len(in.plain)))
	return nil
}

// replaySends times netsim Conn.Send over the traced run's own egress
// packets, in bursts that fit the connection buffer.
func replaySends(ms map[string]metric, pkts [][]byte) error {
	if len(pkts) == 0 {
		return fmt.Errorf("no egress packets recorded")
	}
	net := netsim.New()
	a, err := net.AddHost("a", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return err
	}
	b, err := net.AddHost("b", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return err
	}
	l, err := b.Listen("x")
	if err != nil {
		return err
	}
	defer l.Close()
	c, err := a.Dial("b", "x")
	if err != nil {
		return err
	}
	defer c.Close()
	peer, err := l.Accept()
	if err != nil {
		return err
	}
	const burst, passes = 128, 40
	var sent int
	var busy time.Duration
	for pass := 0; pass < passes; pass++ {
		for off := 0; off < len(pkts); off += burst {
			chunk := pkts[off:min(off+burst, len(pkts))]
			t0 := time.Now()
			for _, p := range chunk {
				if err := c.Send(p); err != nil {
					return err
				}
			}
			busy += time.Since(t0)
			sent += len(chunk)
			for range chunk {
				if _, err := peer.Recv(); err != nil {
					return err
				}
			}
		}
	}
	set(ms, "netsim.send_ns", float64(busy)/float64(sent))
	return nil
}
