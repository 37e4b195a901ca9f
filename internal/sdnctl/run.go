package sdnctl

import (
	"fmt"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/ratls"
	"sgxnet/internal/topo"
	"sgxnet/internal/xcall"
)

// End-to-end deployment drivers for the evaluation: RunSGX and RunNative
// execute the identical workload (policy upload → compute → route
// push-back) through one phase driver, measure, and report per-controller
// instruction tallies for the steady state, with launch and attestation
// excluded exactly as the paper's Table 4 does.

// RunReport is the outcome of one deployment run.
type RunReport struct {
	N int
	// InterDomain is the inter-domain controller's steady-state tally.
	InterDomain core.Tally
	// ASLocal holds each AS-local controller's steady-state tally.
	ASLocal []core.Tally
	// Attestations is the number of remote attestations performed
	// (Table 3: equals the number of AS controllers in the SGX run).
	Attestations int
	// Stats is the route computation's work profile.
	Stats bgp.Stats
	// RIBs is the computed routing state (evaluation hook).
	RIBs map[int]bgp.RIB
	// Installed maps ASN → routes the AS-local controller installed.
	Installed map[int][]bgp.Route

	// Retries and Reattests total the attestation retries and channel
	// re-establishments across all AS-local controllers (zero for clean
	// runs). FaultStats snapshots the schedule's interventions.
	Retries    int
	Reattests  int
	FaultStats netsim.FaultStats

	// QuoteServing is the controller-host quoting enclave's tally over
	// the attestation phase — quote serving only, launch excluded. It is
	// the crossing-cost metric the xcall ablation compares: every quote
	// costs 17 SGX(U) synchronously (Table 1), fewer when the serve
	// ECALLs and message OCALLs ride rings (SGXConfig.Xcall).
	QuoteServing core.Tally
	// QuoteXcall is the quoting agent's ring tally when quote serving
	// runs switchlessly; zero otherwise.
	QuoteXcall xcall.Stats

	// RATLSCold and RATLSWarm split controller-certificate verifications
	// when admission runs over attested channels (SGXConfig.RATLSShards):
	// one cold full verification, warm cache hits for every other AS.
	// Zero when the run does not use RA-TLS.
	RATLSCold, RATLSWarm uint64
}

// ASLocalAvg averages the AS-local tallies.
func (r *RunReport) ASLocalAvg() core.Tally {
	if len(r.ASLocal) == 0 {
		return core.Tally{}
	}
	var sum core.Tally
	for _, t := range r.ASLocal {
		sum = sum.Add(t)
	}
	return core.Tally{SGXU: sum.SGXU / uint64(len(r.ASLocal)), Normal: sum.Normal / uint64(len(r.ASLocal))}
}

// SGXConfig shapes one RunSGX deployment. The zero value is the clean,
// untraced, synchronous baseline the paper measures.
type SGXConfig struct {
	// Faults, when non-nil, is installed before the attestation phase,
	// so it disturbs the entire run.
	Faults *netsim.FaultSchedule
	// Retry arms every controller: attestations retry with backoff,
	// receives time out, and lost channels are re-attested. The zero
	// policy blocks and fails on the first loss.
	Retry attest.RetryPolicy
	// Trace, when non-nil, records on Track (which must be private to
	// this run) the spans measure documents; the quoting enclave on the
	// controller host gets its own "<Track>/qe" track.
	Trace *obs.Trace
	Track string
	// Xcall, when non-nil, has the controller host's quoting enclave
	// serve switchlessly: serve ECALLs and the QE's message OCALLs ride
	// rings sized by it, and the message shim charges in batched windows.
	// The report's QuoteServing/QuoteXcall carry the amortized tally.
	Xcall *xcall.Config
	// RATLSShards > 0 gates every AS connection by the controller's
	// RA-TLS certificate, verified once cold and amortized across the
	// remaining ASes by a shared cache of that many shards. The report's
	// RATLSCold/RATLSWarm carry the split.
	RATLSShards int
	// After, when non-nil, receives the live controller and AS-local
	// controllers once routes are installed and the Table 4 measurement
	// window has closed — for predicate registration/verification (§3.1)
	// or dynamic reconfiguration.
	After func(ctl *Controller, locals []*ASLocal) error
}

// RunSGX deploys the SGX-enabled design on the given topology: one
// controller host plus one host per AS, all SGX platforms with quoting
// enclaves; every AS-local controller remote-attests the inter-domain
// controller (with DH) before uploading its policy.
func RunSGX(t *topo.Topology, cfg SGXConfig) (*RunReport, error) {
	tr, track, fs := cfg.Trace, cfg.Track, cfg.Faults
	n := t.N()
	net := netsim.New()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	newHost := func(name string) (*netsim.SimHost, error) {
		plat, err := core.NewPlatform(name, core.PlatformConfig{EPCFrames: 4096, ArchSigner: arch.MRSigner()})
		if err != nil {
			return nil, err
		}
		return net.AddHostWithPlatform(name, plat)
	}
	ctlHost, err := newHost("controller")
	if err != nil {
		return nil, err
	}
	agent, err := attest.NewAgent(ctlHost, arch)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The AS-local controllers attest serially, so the controller-host
		// quoting enclave serves one request at a time — safe on one track.
		agent.SetTrace(tr, track+"/qe")
	}
	if cfg.Xcall != nil {
		agent.SetXcall(*cfg.Xcall)
	}
	// QuoteServing measures serving only: drain whatever quoting-enclave
	// launch charged before any requester connects.
	agent.QE.Meter().Reset()
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	launch, ctlMR := LaunchController, ControllerMeasurement(n)
	if cfg.RATLSShards > 0 {
		launch, ctlMR = LaunchControllerRATLS, ControllerMeasurementRATLS(n)
	}
	ctl, err := launch(ctlHost, signer, n)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	// RATLS deployments mint the controller's certificate at launch and
	// share one verification cache across every AS — the per-connection
	// amortization the report's RATLSCold/RATLSWarm split shows.
	var raCert []byte
	var raVerifier *ratls.Verifier
	if cfg.RATLSShards > 0 {
		mt, err := ratls.NewMinter(ctlHost.Platform(), arch)
		if err != nil {
			return nil, err
		}
		_, raCert, err = mt.Mint(ctl.Enclave)
		if err != nil {
			return nil, err
		}
		raVerifier = ratls.NewVerifier(attest.Policy{
			AllowedEnclaves: []core.Measurement{ctlMR},
			RejectDebug:     true,
		}, cfg.RATLSShards)
	}
	policies := PoliciesFromTopology(t)
	locals := make([]*ASLocal, n)
	for a := 0; a < n; a++ {
		host, err := newHost(fmt.Sprintf("as%d", a))
		if err != nil {
			return nil, err
		}
		asl, err := LaunchASLocal(host, signer, policies[a], ctlMR)
		if err != nil {
			return nil, err
		}
		locals[a] = asl
		defer asl.Close()
	}

	// Arm the deployment and install the disturbance plan before any
	// protocol traffic, so the whole run — attestation included — is
	// exposed to it.
	ctl.SetRecvTimeout(cfg.Retry.RecvTimeout)
	agent.SetRecvTimeout(cfg.Retry.RecvTimeout)
	for _, asl := range locals {
		asl.SetRetryPolicy(cfg.Retry)
	}
	if fs != nil {
		net.SetFaults(fs)
	}

	// Attestation phase (one remote attestation per AS controller). In
	// the RATLS deployment each connection is gated by certificate
	// admission first — cold for the first AS, warm for the rest — and
	// every AS's re-establishment hook purges the certificate's cached
	// verdict, so a lost channel forces a full re-verification.
	attestations := 0
	for _, asl := range locals {
		if raVerifier != nil {
			if _, err := raVerifier.Admit(asl.Enclave.Meter(), raCert, "controller"); err != nil {
				return nil, fmt.Errorf("sdnctl: AS%d refused controller certificate: %w", asl.ASN, err)
			}
			asl.SetInvalidator(certInvalidator{v: raVerifier, cert: raCert})
		}
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
		// The controller and its quoting enclave top up an attestation's
		// cost after their last message, measured as the growth of their
		// meters since it began: let the top-ups land before the next AS
		// starts charging the same meters (and, after the last AS, before
		// the steady state begins).
		ctl.WaitIdle()
		agent.WaitIdle()
		attestations++
		tr.Event(track, "attest.established", map[string]string{"as": fmt.Sprint(asl.ASN)})
	}
	var raStats ratls.Stats
	if raVerifier != nil {
		raStats = raVerifier.Stats()
	}
	// The attestation phase is the quoting enclave's whole workload:
	// drain its rings at the boundary and capture its serving tally.
	if err := agent.FlushXcall(); err != nil {
		return nil, err
	}
	quoteServing := agent.QE.Meter().Snapshot()
	quoteXcall := agent.XcallStats()

	meters := []*core.Meter{ctl.Enclave.Meter()}
	legs := make([]asLeg, n)
	for i, asl := range locals {
		meters = append(meters, asl.Enclave.Meter())
		legs[i] = asl
	}
	rep, err := measure(tr, track, meters, ctl, legs)
	if err != nil {
		return nil, err
	}
	rep.Attestations = attestations
	rep.Stats = ctl.State.Stats()
	rep.RIBs = ctl.State.RIBs()
	rep.QuoteServing, rep.QuoteXcall = quoteServing, quoteXcall
	rep.RATLSCold, rep.RATLSWarm = raStats.Cold, raStats.Warm
	for _, asl := range locals {
		rep.Installed[asl.ASN] = asl.State.Installed()
		rep.Retries += asl.Retries
		rep.Reattests += asl.Reattests
	}
	if fs != nil {
		rep.FaultStats = fs.Stats()
	}
	if cfg.After != nil {
		if err := cfg.After(ctl, locals); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RunNative deploys the baseline on the same workload, through the
// same phase driver as RunSGX, so native and SGX legs compare phase by
// phase in sgxnet-trace. A nil trace records nothing.
func RunNative(t *topo.Topology, tr *obs.Trace, track string) (*RunReport, error) {
	n := t.N()
	net := netsim.New()
	ctlHost, err := net.AddHost("controller", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return nil, err
	}
	ctl, err := LaunchNativeController(ctlHost, n)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	policies := PoliciesFromTopology(t)
	locals := make([]*NativeASLocal, n)
	for a := 0; a < n; a++ {
		host, err := net.AddHost(fmt.Sprintf("as%d", a), core.PlatformConfig{EPCFrames: 64})
		if err != nil {
			return nil, err
		}
		locals[a] = NewNativeASLocal(host, policies[a])
		defer locals[a].Close()
	}
	for _, asl := range locals {
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
	}

	meters := []*core.Meter{ctlHost.Platform().HostMeter}
	legs := make([]asLeg, n)
	for i, asl := range locals {
		meters = append(meters, asl.Host.Platform().HostMeter)
		legs[i] = asl
	}
	rep, err := measure(tr, track, meters, ctl, legs)
	if err != nil {
		return nil, err
	}
	rep.Stats = ctl.State.Stats()
	rep.RIBs = ctl.State.RIBs()
	for _, asl := range locals {
		rep.Installed[asl.ASN] = asl.Installed()
	}
	return rep, nil
}

// asLeg is an AS-local controller as the phase driver sees it: the SGX
// *ASLocal and the baseline *NativeASLocal both qualify.
type asLeg interface {
	Upload() error
	Fetch() error
}

// interDomain is the inter-domain controller as the phase driver sees
// it: the SGX *Controller and the baseline *NativeController both
// qualify.
type interDomain interface {
	Compute() error
	WaitIdle()
}

// measure runs the steady-state workload RunSGX and RunNative share and
// starts the report. meters[0] is the inter-domain controller's meter
// and meters[1:] the AS-local controllers', in legs order. Whatever the
// meters hold on entry (launch, attestation) is drained into a "setup"
// span with SnapshotAndReset — not Snapshot+Reset — so setup and steady
// tallies partition the meters' lifetime consumption exactly, which is
// what lets the trace attribute the whole run. The "phase.upload",
// "phase.compute" and "phase.fetch" spans watch every meter, so their
// deltas sum exactly to the tallies the report publishes, and a
// "run.total" record carries everything the meters consumed, setup
// included: the independently-reported total the analyzer attributes
// spans against. Each phase ends only once the controller is idle, so a
// charge it makes after replying stays in the phase that caused it.
func measure(tr *obs.Trace, track string, meters []*core.Meter, ctl interDomain, legs []asLeg) (*RunReport, error) {
	var setup core.Tally
	for _, m := range meters {
		setup = setup.Add(m.SnapshotAndReset())
	}
	tr.RecordSpan(track, "setup", setup)

	each := func(op func(asLeg) error) func() error {
		return func() error {
			for _, l := range legs {
				if err := op(l); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, ph := range []struct {
		name string
		run  func() error
	}{
		{"phase.upload", each(asLeg.Upload)},
		{"phase.compute", ctl.Compute},
		{"phase.fetch", each(asLeg.Fetch)},
	} {
		sp := tr.Begin(track, ph.name, meters...)
		err := ph.run()
		ctl.WaitIdle()
		sp.End()
		if err != nil {
			return nil, err
		}
	}

	rep := &RunReport{
		N:           len(legs),
		InterDomain: meters[0].Snapshot(),
		Installed:   make(map[int][]bgp.Route, len(legs)),
	}
	total := setup.Add(rep.InterDomain)
	for _, m := range meters[1:] {
		t := m.Snapshot()
		rep.ASLocal = append(rep.ASLocal, t)
		total = total.Add(t)
	}
	tr.Total(track, "run.total", total)
	return rep, nil
}
