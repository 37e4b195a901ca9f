package eval

import (
	"fmt"
	"io"
)

// Experiment is one section of the sgxnet-tables transcript. Adding an
// experiment means adding one entry to Experiments plus its golden file
// cmd/sgxnet-tables/testdata/<Name>.golden; the command derives its
// flags and section order, and the golden tests their cases, from here.
type Experiment struct {
	// Name selects the section and names its golden-file stem. Entries
	// named "table<N>" and "fig<N>" are selected by -table N and -fig N;
	// every other entry by a bool flag of the same name.
	Name string
	// Usage is the selecting flag's help text.
	Usage string
	// Default reports whether the section runs when none is selected.
	// Only byte-reproducible sections may; their output is golden.
	Default bool
	// Render runs the experiment on r and writes the section, trailing
	// blank line included.
	Render func(r *Runner, w io.Writer) error
	// CSV, if set, is Render's machine-readable alternative (-csv).
	CSV func(r *Runner, w io.Writer) error
}

// Experiments lists every transcript section in canonical output order.
var Experiments = []Experiment{
	{Name: "table1", Usage: "Table 1: instructions during remote attestation", Default: true,
		Render: section(func(r *Runner) ([]Table1Row, error) { return Table1Traced(r.trace) }, RenderTable1, true)},
	{Name: "table2", Usage: "Table 2: enclave packet I/O", Default: true,
		Render: section(func(r *Runner) ([]Table2Row, error) { return Table2Traced(r.trace) }, RenderTable2, true)},
	{Name: "table3", Usage: "Table 3: attestations per design", Default: true,
		Render: section(func(r *Runner) ([]Table3Row, error) { return Table3Traced(r.trace) }, RenderTable3, true)},
	{Name: "table4", Usage: "Table 4: SDN inter-domain routing at 30 ASes", Default: true,
		Render: section(func(r *Runner) (*Table4Result, error) { return r.Table4At(30) }, RenderTable4, true)},
	{Name: "fig3", Usage: "Figure 3: inter-domain controller cycles vs AS count", Default: true,
		Render: section(figure3, RenderFigure3, true),
		CSV:    section(figure3, renderFigure3CSV, true)},
	// RenderAblations emits the blank line after each of its four
	// sub-blocks itself.
	{Name: "ablations", Usage: "run only the ablation experiments", Default: true,
		Render: section((*Runner).Ablations, RenderAblations, false)},
	{Name: "epc-sweep", Usage: "run only the EPC oversubscription sweep (multi-tenant paging overhead)", Default: true,
		Render: section((*Runner).EPCSweep, RenderEPCSweep, true)},
	{Name: "xcall-sweep", Usage: "run only the switchless-call ablation (ring batching vs synchronous crossings)", Default: true,
		Render: section((*Runner).XcallSweep, RenderXcallSweep, true)},
	{Name: "load-sweep", Usage: "run only the open-loop load sweep (latency percentiles under seeded arrivals)", Default: true,
		Render: section((*Runner).LoadSweep, RenderLoadSweep, true)},
	{Name: "scale-sweep", Usage: "run only the discrete-event scale sweep (thousands of ASes/relays, millions of flows on the event kernel)", Default: true,
		Render: section((*Runner).ScaleSweep, RenderScaleSweep, true)},
	{Name: "ratls-sweep", Usage: "run only the attested-channel sweep (cold vs warm RA-TLS quote verification across client counts)", Default: true,
		Render: section((*Runner).RATLSSweep, RenderRATLSSweep, true)},
	{Name: "chain-sweep", Usage: "run only the trusted NF-chain sweep (pipeline depth x xcall batch x rule-set size, native vs SGX)", Default: true,
		Render: section((*Runner).ChainSweep, RenderChainSweep, true)},
	// The fault sweep races real timeouts against goroutine scheduling,
	// so its numbers are not byte-reproducible; it only runs on request.
	{Name: "faults", Usage: "run the fault-tolerance sweep (timing-dependent, excluded from -ablations and the default run)",
		Render: section(func(r *Runner) ([]FaultTolerancePoint, error) { return r.FaultTolerance(nil, 0) }, RenderFaultTolerance, false)},
}

// section pairs an experiment with its renderer, optionally followed by
// the blank line that separates transcript sections.
func section[T any](run func(*Runner) (T, error), render func(io.Writer, T), blank bool) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		v, err := run(r)
		if err != nil {
			return err
		}
		render(w, v)
		if blank {
			fmt.Fprintln(w)
		}
		return nil
	}
}

func figure3(r *Runner) ([]Figure3Point, error) { return r.Figure3(nil) }

// renderFigure3CSV prints Figure 3's points for plotting.
func renderFigure3CSV(w io.Writer, pts []Figure3Point) {
	fmt.Fprintln(w, "ases,native_cycles,sgx_cycles")
	for _, p := range pts {
		fmt.Fprintf(w, "%d,%d,%d\n", p.N, p.NativeCycles, p.SGXCycles)
	}
}
