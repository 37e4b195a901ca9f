package core

// Instruction cost model.
//
// The paper measures two quantities for every operation: the number of SGX
// usermode instructions (SGX(U)) and the number of "normal" x86
// instructions, obtained from OpenSGX's QEMU-based tracer. This file holds
// the calibrated normal-instruction costs of the operations that dominate
// the paper's evaluation. Constants are solved from the paper's own tables
// (see DESIGN.md §4):
//
//   - Table 1 (remote attestation): target 20 / quoting 17 / challenger 8
//     SGX(U) instructions; 154M / 125M / 124M base normal instructions;
//     the DH-1024 exchange adds 4184M to the target (safe-prime parameter
//     generation) and 224M to the challenger (modular exponentiation).
//   - Table 2 (packet I/O): a single in-enclave send costs 6 SGX(U) and
//     13K normal instructions; a 100-packet batch costs 204 SGX(U) and
//     136K normal. Solving: 2 SGX(U) + ~1.36K normal per batched packet,
//     plus a fixed 4 SGX(U) + ~11.6K normal per I/O call. With AES-ECB-128
//     the cipher context setup (key schedule) costs 76.4K and each MTU
//     encryption 7.6K: 1 packet → 84K extra, 100 packets → 836K extra,
//     matching the table.
//   - Table 4 / Figure 3: running inside the enclave inflates the
//     controller's normal instruction count by ~82% (inter-domain) and
//     ~69% (AS-local), attributed by the paper to in-enclave I/O and
//     dynamic memory allocation forcing enclave exits.
//
// Cycle conversion (paper footnote 6): the measured average IPC is 1.8 and
// each SGX instruction is assumed to take 10K cycles; the paper computes
//
//	cycles = 10,000 × #SGX(U) + 1.8 × #normal
//
// (e.g. challenger: 8×10K + 1.8×348M ≈ 626M cycles — the number quoted in
// §5). CyclesOf applies the same formula.
const (
	// SGXInstructionCycles is the assumed cost of one SGX usermode
	// instruction, from [7] (Haven) via the paper's §5.
	SGXInstructionCycles = 10_000

	// CyclesPerNormalInstruction is the paper's measured conversion factor
	// ("IPC" 1.8, applied multiplicatively exactly as the paper does).
	// Expressed as a rational (×10/10) to keep all accounting integral.
	cyclesPerNormalNum = 18
	cyclesPerNormalDen = 10
)

// Calibrated normal-instruction costs. All values are instruction counts.
const (
	// --- Crypto (Table 1 deltas) ---

	// CostDHParamGen is the cost of generating fresh 1024-bit
	// Diffie-Hellman parameters (safe-prime search). Dominates the target
	// enclave's "w/ DH" column: 4338M − 154M(base) − 224M(key agreement,
	// which the target also performs).
	CostDHParamGen = 3_960_000_000

	// CostDHKeyAgree is the cost of one side's DH public-key computation
	// plus shared-secret derivation (two 1024-bit modexps):
	// challenger "w/ DH" − "w/o DH" = 348M − 124M.
	CostDHKeyAgree = 224_000_000

	// CostAESKeySchedule is the AES-128 key schedule (cipher context
	// setup), solved from Table 2 (see package comment).
	CostAESKeySchedule = 76_400

	// CostAESBlockPerByte approximates AES-ECB encryption cost per byte;
	// one MTU (1500 B) packet costs ~7.6K instructions.
	CostAESBlockPerByte = 5

	// CostSHA256PerByte is the software SHA-256 cost per input byte,
	// consistent with the measurement phase being negligible next to DH.
	CostSHA256PerByte = 15

	// CostSigSign and CostSigVerify model the QUOTE signature (the paper
	// uses EPID; we use a platform signature — see DESIGN.md). Folded into
	// the quoting enclave's 125M base in Table 1; kept separate so
	// non-attestation uses of signatures are still charged.
	CostSigSign   = 2_000_000
	CostSigVerify = 4_000_000

	// CostHMAC is the fixed cost of a report MAC computation over the
	// 432-byte REPORT body.
	CostHMAC = 20_000

	// --- Attestation skeletons (Table 1 base columns) ---

	// CostAttestTargetBase is the target enclave's normal-instruction
	// count for remote attestation excluding DH (REPORT construction,
	// message handling, intra-attestation with the quoting enclave).
	CostAttestTargetBase = 154_000_000

	// CostAttestQuotingBase is the quoting enclave's count (REPORT
	// verification + QUOTE signing). DH does not involve the quoting
	// enclave, so this column is identical with and without DH.
	CostAttestQuotingBase = 125_000_000

	// CostAttestChallengerBase is the challenger enclave's count (QUOTE
	// signature verification + identity check).
	CostAttestChallengerBase = 124_000_000

	// --- SGX(U) instruction budgets during remote attestation (Table 1) ---

	SGXInstAttestTarget     = 20
	SGXInstAttestQuoting    = 17
	SGXInstAttestChallenger = 8

	// --- Enclave I/O (Table 2) ---

	// CostIOCallFixed is the fixed normal-instruction overhead of one
	// in-enclave I/O call (marshalling, OCALL frame setup, host syscall
	// shim), independent of how many packets the call batches. Solved
	// with CostIOPerPacket from Table 2's w/o-crypto rows:
	// fixed + 1·per = 13K, fixed + 100·per = 136K.
	CostIOCallFixed = 11_758

	// CostIOPerPacket is the per-packet normal-instruction cost within a
	// batch (copy out of the enclave, descriptor bookkeeping).
	CostIOPerPacket = 1_242

	// SGXInstIOCallFixed is the fixed SGX(U) budget of one send call:
	// EENTER + EEXIT around the ECALL plus the EEXIT/ERESUME pair of the
	// OCALL — these four arise structurally from Enclave.Call + Env.OCall
	// and are listed here only for documentation. SGXInstIOPerPacket is
	// charged per packet by the I/O shim (per-packet boundary crossing),
	// reproducing Table 2's 6 SGX(U) for one packet and 204 for a
	// 100-packet batch.
	SGXInstIOCallFixed = 4
	SGXInstIOPerPacket = 2

	// --- Enclave-mode execution surcharge (Table 4 / Figure 3) ---

	// CostEnclaveAllocFixed is charged per dynamic allocation performed
	// inside an enclave: SGX1 has no EDMM, so heap growth forces an
	// enclave exit to the untrusted runtime, page bookkeeping, and a
	// sanity-checked re-entry (the paper names dynamic memory allocation
	// as a main overhead source for Table 4). Calibrated together with
	// the controller's allocation rate so the 30-AS inter-domain
	// controller lands on Table 4's +82%.
	CostEnclaveAllocFixed = 100_000

	// SGXInstEnclaveAlloc is the EEXIT/ERESUME pair per in-enclave
	// allocation that spills to the untrusted allocator.
	SGXInstEnclaveAlloc = 2

	// --- Enclave lifecycle (one-time; excluded from steady-state tables,
	// reported separately) ---

	CostPageAdd     = 1_800 // EADD + 16×EEXTEND measurement of one 4KiB page
	CostEnclaveInit = 9_000 // EINIT signature check bookkeeping

	// --- EPC oversubscription (pager) ---

	// CostPageFault is the fixed normal-instruction cost of one EPC
	// capacity fault excluding the page crypto itself: the asynchronous
	// exit's state save, the OS fault handler's lookup and dispatch, and
	// the sanity checks on re-entry. EWB/ELDU charge their own
	// CostPageEvict/CostPageLoad on top.
	CostPageFault = 12_000

	// SGXInstPageFault is the AEX + ERESUME pair every EPC fault forces,
	// mirroring the paper's observation that enclave exits — not the
	// in-enclave work — are where SGX overhead concentrates.
	SGXInstPageFault = 2

	// --- Switchless calls (xcall rings, DESIGN.md §10) ---
	//
	// The switchless-call subsystem (internal/xcall) replaces the
	// per-call EENTER/EEXIT pair with bounded shared-memory rings: the
	// caller writes a descriptor, an enclave-resident worker drains
	// descriptors in batches, and only the batch boundary pays a
	// crossing. These constants are the modeled ring operations; the
	// amortized crossing itself is SGXInstRingDrain per drained batch.

	// CostRingEnqueue is the producer side of one descriptor: the slot
	// claim, the descriptor write, the release fence, and the doorbell
	// word check.
	CostRingEnqueue = 350

	// CostRingDequeue is the worker side of one descriptor: the
	// acquire-load, the descriptor parse, and the completion-slot write
	// the caller spins on.
	CostRingDequeue = 250

	// CostRingSpinPoll is one poll of the ring head by the spinning
	// in-enclave worker. Charged once per submission while the worker is
	// hot — the modeled price of keeping a core busy-waiting inside the
	// enclave instead of crossing.
	CostRingSpinPoll = 60

	// SGXInstRingDrain is the amortized EEXIT/ERESUME pair per drained
	// batch: the worker yields between batches, so N descriptors cost
	// one crossing instead of N (HotCalls-style accounting).
	SGXInstRingDrain = 2

	// --- Fault tolerance (this repo's extension beyond the paper) ---
	//
	// The paper's protocols assume a benign scheduler; hardening them
	// against loss, delay, and crashes adds instructions that the tables
	// must account for, or robustness would look free. These are charged
	// by the retry/timeout machinery in attest, sdnctl, and tor.

	// CostRecvTimeout is charged when a receive deadline expires: timer
	// arming, the fruitless wakeup, and the error path back out of the
	// OCALL frame.
	CostRecvTimeout = 8_000

	// CostRetryAttempt is charged per protocol retry: tearing down the
	// failed attempt's state, backoff bookkeeping, and redialing.
	CostRetryAttempt = 50_000

	// CostSessionReestablish is charged when an expired attested session
	// is detected and scheduled for re-establishment (table lookup,
	// expiry check, teardown) — the attestation itself then charges its
	// own Table 1 costs again.
	CostSessionReestablish = 20_000

	// --- Attested channels (RA-TLS, DESIGN.md §15) ---

	// CostQuoteCacheLookup is one warm hit in the RA-TLS verification
	// cache. The model prices a digest-keyed lookup — the certificate
	// digest, the shard lock, and the map probe that stand in for a full
	// quote re-verification — at 6,000 normal instructions, however the
	// simulator keys its map. Two signature checks (~2×CostSigVerify)
	// collapse to this, which is what makes N connections from the same
	// attested peer cost ~1 verification.
	CostQuoteCacheLookup = 6_000

	// --- Trusted NF chains (DESIGN.md §16) ---
	//
	// Chained network functions evaluate a routing rule table at every
	// hop, so rule-engine work scales with (rules × hops × packets) and
	// competes directly with the enclave-crossing tax that batching
	// amortizes. The per-stage costs below model the non-crypto part of
	// each stage body; crypto-bearing stages (DPI decrypt, re-encrypt)
	// additionally pay the tlslite/sgxcrypto costs they invoke.

	// CostRuleEval is charged per rule examined by the in-enclave rule
	// engine: the scope check, field comparisons against the packet's
	// flow tuple and tag, and the walk to the next entry. A linear table
	// of R rules costs up to R of these per packet per hop.
	CostRuleEval = 400

	// CostChainClassify is one classification pass over a packet's
	// headers: protocol/port demux and the tag write.
	CostChainClassify = 600

	// CostChainFilter is one header-filter pass: deny-list membership
	// probe on the destination port plus the tag write on a hit.
	CostChainFilter = 300

	// CostChainScanPerByte is the DPI stage's per-byte pattern-match
	// cost over the recovered plaintext (the automaton step, not the
	// record decryption — that charges tlslite's own costs).
	CostChainScanPerByte = 10

	// CostChainRewritePerByte is the transform stage's per-byte cost of
	// copying a packet through the header-rewrite path.
	CostChainRewritePerByte = 2
)

// MTUBytes is the packet size used throughout the I/O evaluation.
const MTUBytes = 1500

// CyclesOf converts an instruction tally to estimated CPU cycles using the
// paper's formula: 10,000 cycles per SGX usermode instruction plus 1.8
// cycles per normal instruction.
func CyclesOf(sgxU, normal uint64) uint64 {
	return sgxU*SGXInstructionCycles + normal*cyclesPerNormalNum/cyclesPerNormalDen
}
