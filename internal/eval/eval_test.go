package eval

import (
	"bytes"
	"strings"
	"testing"
)

func within(t *testing.T, name string, got, want uint64, pctTol uint64) {
	t.Helper()
	lo := want * (100 - pctTol) / 100
	hi := want * (100 + pctTol) / 100
	if got < lo || got > hi {
		t.Errorf("%s = %d, want %d ±%d%%", name, got, want, pctTol)
	}
}

func TestTable1ReproducesPaper(t *testing.T) {
	rows, err := Table1Traced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		key := r.Role + "/noDH"
		if r.WithDH {
			key = r.Role + "/DH"
		}
		ref := paper.table1[key]
		if r.Tally.SGXU != ref[0] {
			t.Errorf("%s: SGX(U)=%d want %d", key, r.Tally.SGXU, ref[0])
		}
		if r.Tally.Normal != ref[1] {
			t.Errorf("%s: normal=%d want %d", key, r.Tally.Normal, ref[1])
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "challenger") {
		t.Fatal("render missing rows")
	}
}

func TestTable2ReproducesPaper(t *testing.T) {
	rows, err := Table2Traced(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		key := "1/plain"
		switch {
		case r.Packets == 1 && r.Crypto:
			key = "1/crypto"
		case r.Packets == 100 && !r.Crypto:
			key = "100/plain"
		case r.Packets == 100 && r.Crypto:
			key = "100/crypto"
		}
		ref := paper.table2[key]
		if r.Tally.SGXU != ref[0] {
			t.Errorf("%s: SGX(U)=%d want %d", key, r.Tally.SGXU, ref[0])
		}
		within(t, key+" normal", r.Tally.Normal, ref[1], 2)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "packets") {
		t.Fatal("render missing header")
	}
}

func TestTable3CountsMatchFormulas(t *testing.T) {
	rows, err := Table3Traced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured != r.Scale {
			t.Errorf("%s: measured %d, formula predicts %d", r.Design, r.Measured, r.Scale)
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "middlebox") {
		t.Fatal("render missing rows")
	}
}

func TestTable4ReproducesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("30-AS deployment")
	}
	r, err := NewRunner(0).Table4At(30)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "native inter-domain", r.Native.InterDomain.Normal, paper.table4["inter/native"], 5)
	within(t, "sgx inter-domain", r.SGX.InterDomain.Normal, paper.table4["inter/sgx"], 5)
	within(t, "native as-local", r.Native.ASLocalAvg().Normal, paper.table4["aslocal/native"], 8)
	within(t, "sgx as-local", r.SGX.ASLocalAvg().Normal, paper.table4["aslocal/sgx"], 12)
	within(t, "sgx inter-domain SGX(U)", r.SGX.InterDomain.SGXU, paper.table4["inter/sgx/sgxu"], 10)
	within(t, "sgx as-local SGX(U)", r.SGX.ASLocalAvg().SGXU, paper.table4["aslocal/sgx/sgxu"], 10)
	var buf bytes.Buffer
	RenderTable4(&buf, r)
	if !strings.Contains(buf.String(), "inter-domain") {
		t.Fatal("render missing rows")
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	pts, err := NewRunner(0).Figure3([]int{5, 15, 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NativeCycles <= pts[i-1].NativeCycles {
			t.Fatal("native cycles not increasing with AS count")
		}
		if pts[i].SGXCycles <= pts[i-1].SGXCycles {
			t.Fatal("SGX cycles not increasing with AS count")
		}
	}
	for _, p := range pts {
		ratio := float64(p.SGXCycles) / float64(p.NativeCycles)
		if ratio < 1.4 || ratio > 2.4 {
			t.Fatalf("n=%d: cycle overhead ratio %.2f outside the paper's ~1.9 band", p.N, ratio)
		}
	}
	var buf bytes.Buffer
	RenderFigure3(&buf, pts)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("render broken")
	}
}

func TestAblationBatchSweepMonotone(t *testing.T) {
	pts, err := AblationBatchSweep(nil, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PerPacket >= pts[i-1].PerPacket {
			t.Fatalf("per-packet cost not falling with batch size: %+v", pts)
		}
	}
	var buf bytes.Buffer
	RenderBatchSweep(&buf, pts)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationSMPCGap(t *testing.T) {
	c, err := AblationSMPC()
	if err != nil {
		t.Fatal(err)
	}
	if c.CostRatio < 1000 {
		t.Fatalf("SMPC/SGX ratio %.0f — not prohibitive", c.CostRatio)
	}
	var buf bytes.Buffer
	RenderSMPC(&buf, c)
	if !strings.Contains(buf.String(), "prohibitively") {
		t.Fatal("render broken")
	}
}

func TestAblationDHTLogarithmic(t *testing.T) {
	pts, err := AblationDHTLookups([]int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	// 8× more nodes should cost far less than 8× more hops.
	if pts[1].AvgHops > 4*pts[0].AvgHops+3 {
		t.Fatalf("lookups not scaling logarithmically: %+v", pts)
	}
	var buf bytes.Buffer
	RenderDHTSweep(&buf, pts)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationMiddleboxApproaches(t *testing.T) {
	c, err := AblationMiddleboxApproaches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratio < 5 {
		t.Fatalf("SGX first-contact premium %.1f× — expected an order of magnitude", c.Ratio)
	}
	if c.MCTLSCached.Normal*5 > c.MCTLSFirstContact.Normal {
		t.Fatal("mcTLS caching did not amortize the DH")
	}
	var buf bytes.Buffer
	RenderMboxApproaches(&buf, c)
	if !strings.Contains(buf.String(), "mcTLS") {
		t.Fatal("render broken")
	}
}
