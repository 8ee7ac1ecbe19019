package fame

import (
	"context"
	"math"
	"testing"

	"multival/internal/mcl"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestLineReadWriteBasics(t *testing.T) {
	ln, err := NewLine(0, 3, MSI)
	if err != nil {
		t.Fatal(err)
	}
	// Cold read by node 1: ReadReq + Data.
	msgs := ln.Read(1)
	if len(msgs) != 2 || msgs[0].Type != ReadReq || msgs[1].Type != DataReply {
		t.Fatalf("cold read msgs = %v", msgs)
	}
	if ln.States[1] != Shared {
		t.Fatalf("MSI read should give S, got %v", ln.States[1])
	}
	// Read hit: no messages.
	if got := ln.Read(1); len(got) != 0 {
		t.Fatalf("read hit produced %v", got)
	}
	// Write by node 2: WriteReq + Inv/InvAck for node 1 + GrantM.
	msgs = ln.Write(2)
	if len(msgs) != 4 {
		t.Fatalf("write msgs = %v", msgs)
	}
	if ln.States[2] != Modified || ln.States[1] != Invalid {
		t.Fatalf("states after write: %v", ln.States)
	}
	// Write hit in M: silent.
	if got := ln.Write(2); len(got) != 0 {
		t.Fatalf("M write hit produced %v", got)
	}
	if err := ln.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestMESISilentUpgrade(t *testing.T) {
	ln, _ := NewLine(0, 3, MESI)
	// Cold read with no sharers: E.
	ln.Read(1)
	if ln.States[1] != Exclusive {
		t.Fatalf("MESI cold read should give E, got %v", ln.States[1])
	}
	// Write hit in E: silent upgrade.
	if msgs := ln.Write(1); len(msgs) != 0 {
		t.Fatalf("E->M upgrade produced %v", msgs)
	}
	if ln.States[1] != Modified {
		t.Fatal("silent upgrade did not reach M")
	}
	// Same sequence under MSI costs messages.
	msi, _ := NewLine(0, 3, MSI)
	msi.Read(1)
	if msgs := msi.Write(1); len(msgs) == 0 {
		t.Fatal("MSI write after read should need an upgrade transaction")
	}
}

func TestFetchFromModifiedOwner(t *testing.T) {
	ln, _ := NewLine(0, 3, MSI)
	ln.Read(1)
	ln.Write(1) // node 1 is M
	msgs := ln.Read(2)
	// ReadReq, Fetch, WbData, Data.
	if len(msgs) != 4 || msgs[1].Type != Fetch || msgs[2].Type != WritebackData {
		t.Fatalf("fetch sequence = %v", msgs)
	}
	if ln.States[1] != Shared || ln.States[2] != Shared {
		t.Fatalf("states after fetch: %v", ln.States)
	}
}

func TestCoherenceInvariantHolds(t *testing.T) {
	// Model-check the protocol state machine: no reachable violation,
	// for both protocols and 2..4 nodes.
	for _, p := range []Protocol{MSI, MESI} {
		for nodes := 2; nodes <= 4; nodes++ {
			l, err := CoherenceLTS(nodes, p)
			if err != nil {
				t.Fatal(err)
			}
			if !mcl.MustCheck(l, mcl.NeverEnabled(mcl.Action("violation"))) {
				t.Errorf("%s/%d: coherence invariant violated", p, nodes)
			}
			if !mcl.MustCheck(l, mcl.DeadlockFree()) {
				t.Errorf("%s/%d: protocol deadlocked", p, nodes)
			}
		}
	}
}

func TestMESIObservablyDifferentFromMSI(t *testing.T) {
	msi, err := CoherenceLTS(3, MSI)
	if err != nil {
		t.Fatal(err)
	}
	mesi, err := CoherenceLTS(3, MESI)
	if err != nil {
		t.Fatal(err)
	}
	// The silent upgrade "write !n !0" directly after a cold read is a
	// MESI-only observation: in MSI a write after a read always pays an
	// upgrade transaction (it would be "write !n !2").
	free := mcl.Dia(mcl.MustActionRegex(`write !1 !0`), mcl.True())
	afterColdRead := mcl.Dia(mcl.MustActionRegex(`read !1 !2`), free)
	if !mcl.MustCheck(mesi, afterColdRead) {
		t.Error("MESI: cold read then free write should be possible")
	}
	if mcl.MustCheck(msi, afterColdRead) {
		t.Error("MSI: write directly after cold read cannot be free")
	}
	_ = msi
}

func TestTopologyHops(t *testing.T) {
	cases := []struct {
		t        Topology
		src, dst int
		n, want  int
	}{
		{Ring, 0, 1, 8, 1},
		{Ring, 0, 7, 8, 1}, // wrap-around
		{Ring, 0, 4, 8, 4},
		{Crossbar, 0, 5, 8, 1},
		{Crossbar, 3, 3, 8, 0},
		{Mesh2D, 0, 3, 4, 2},   // 2x2 grid: diagonal
		{Mesh2D, 0, 15, 16, 6}, // 4x4 grid corner to corner
	}
	for _, c := range cases {
		got, err := c.t.Hops(c.src, c.dst, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s.Hops(%d,%d,%d) = %d, want %d", c.t, c.src, c.dst, c.n, got, c.want)
		}
	}
	if _, err := Ring.Hops(0, 9, 4); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestMeanDistanceOrdering(t *testing.T) {
	// crossbar <= mesh <= ring for 16 nodes.
	n := 16
	xb, _ := Crossbar.MeanDistance(n)
	mesh, _ := Mesh2D.MeanDistance(n)
	ring, _ := Ring.MeanDistance(n)
	if !(xb <= mesh && mesh <= ring) {
		t.Errorf("distance ordering broken: xbar %g, mesh %g, ring %g", xb, mesh, ring)
	}
}

func baseWorkload() Workload {
	return Workload{
		Nodes: 8, A: 0, B: 3, Chunks: 4, Scratch: 2,
		Protocol: MSI, Mode: Eager, Rounds: 3,
	}
}

func TestPingPongSteadyState(t *testing.T) {
	w := baseWorkload()
	msgs, err := PingPongMessages(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("no messages in a round")
	}
	// Steady state: running more rounds yields the same message count.
	w2 := w
	w2.Rounds = 6
	msgs2, err := PingPongMessages(w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != len(msgs2) {
		t.Errorf("rounds 3 vs 6: %d vs %d messages (not steady)", len(msgs), len(msgs2))
	}
}

func TestMESIBeatsMSI(t *testing.T) {
	// With private scratch data, MESI issues strictly fewer messages.
	msi := baseWorkload()
	mesi := baseWorkload()
	mesi.Protocol = MESI
	m1, err := PingPongMessages(msi)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := PingPongMessages(mesi)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) >= len(m1) {
		t.Errorf("MESI (%d msgs) should beat MSI (%d msgs) with scratch data", len(m2), len(m1))
	}
	// Without scratch data they tie (ping-pong proper is all shared).
	msi.Scratch, mesi.Scratch = 0, 0
	m1, _ = PingPongMessages(msi)
	m2, _ = PingPongMessages(mesi)
	if len(m1) != len(m2) {
		t.Errorf("without scratch, MSI %d vs MESI %d messages", len(m1), len(m2))
	}
}

func TestRendezvousCostsMore(t *testing.T) {
	eager := baseWorkload()
	rdv := baseWorkload()
	rdv.Mode = Rendezvous
	m1, err := PingPongMessages(eager)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := PingPongMessages(rdv)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) <= len(m1) {
		t.Errorf("rendezvous (%d msgs) should cost more than eager (%d msgs)", len(m2), len(m1))
	}
}

func TestPredictLatencyMatchesAnalytic(t *testing.T) {
	tm := Timing{TBase: 1, THop: 0.5, ErlangK: 3}
	pred, err := PredictLatency(baseWorkload(), Ring, tm)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pred.Latency, pred.AnalyticLatency, 1e-6*pred.AnalyticLatency, "latency vs analytic")
	if pred.CTMCStates != pred.Messages*tm.ErlangK+1 {
		t.Errorf("CTMC states = %d, want %d", pred.CTMCStates, pred.Messages*tm.ErlangK+1)
	}
}

func TestLatencyTopologyOrdering(t *testing.T) {
	tm := Timing{TBase: 0.2, THop: 1, ErlangK: 2}
	w := baseWorkload()
	var lat [3]float64
	for i, topo := range []Topology{Crossbar, Mesh2D, Ring} {
		pred, err := PredictLatency(w, topo, tm)
		if err != nil {
			t.Fatal(err)
		}
		lat[i] = pred.Latency
	}
	if !(lat[0] <= lat[1] && lat[1] <= lat[2]) {
		t.Errorf("latency ordering broken: xbar %g, mesh %g, ring %g", lat[0], lat[1], lat[2])
	}
}

func TestSweepShape(t *testing.T) {
	rows, err := Sweep(baseWorkload(), nil, nil, nil, Timing{TBase: 1, THop: 0.5, ErlangK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*2 {
		t.Fatalf("sweep returned %d rows, want 12", len(rows))
	}
	// Within every topology/mode pair, MESI <= MSI.
	for i := 0; i < len(rows); i += 2 {
		msi, mesi := rows[i], rows[i+1]
		if msi.Workload.Protocol != MSI || mesi.Workload.Protocol != MESI {
			t.Fatal("row ordering unexpected")
		}
		if mesi.Latency > msi.Latency {
			t.Errorf("%s/%s: MESI %g slower than MSI %g",
				msi.Topology, msi.Workload.Mode, mesi.Latency, msi.Latency)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []Workload{
		{Nodes: 1, A: 0, B: 0, Chunks: 1, Rounds: 1},
		{Nodes: 4, A: 0, B: 0, Chunks: 1, Rounds: 1},
		{Nodes: 4, A: 0, B: 1, Chunks: 0, Rounds: 1},
		{Nodes: 4, A: 0, B: 1, Chunks: 1, Rounds: 0},
		{Nodes: 4, A: 0, B: 1, Chunks: 1, Scratch: 100, Rounds: 1},
	}
	for i, w := range bad {
		if _, err := PingPongMessages(w); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
}

func TestTimingValidation(t *testing.T) {
	w := baseWorkload()
	if _, err := PredictLatency(w, Ring, Timing{TBase: 0, THop: 0, ErlangK: 1}); err == nil {
		t.Error("zero timing accepted")
	}
	if _, err := PredictLatency(w, Ring, Timing{TBase: 1, THop: 1, ErlangK: 0}); err == nil {
		t.Error("zero phases accepted")
	}
}

func TestProtocolAndModeStrings(t *testing.T) {
	if MSI.String() != "MSI" || MESI.String() != "MESI" {
		t.Error("protocol names")
	}
	if Eager.String() != "eager" || Rendezvous.String() != "rendezvous" {
		t.Error("mode names")
	}
	if Invalid.String() != "I" || Modified.String() != "M" || Exclusive.String() != "E" || Shared.String() != "S" {
		t.Error("state names")
	}
}

func TestMPIFunctionalModel(t *testing.T) {
	l, err := MPIFunctionalModel(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() == 0 {
		t.Fatal("empty MPI model")
	}
	// The protocol never wedges.
	if !mcl.MustCheck(l, mcl.DeadlockFree()) {
		t.Fatal("MPI flag protocol deadlocked")
	}
	// Both payloads flow end to end.
	for _, lab := range []string{"recv !0", "recv !1"} {
		if !mcl.MustCheck(l, mcl.ReachableAction(mcl.Action(lab))) {
			t.Errorf("%s unreachable", lab)
		}
	}
	// Polling is a real livelock (the receiver may spin on a clear
	// flag): the functional model honestly exposes it.
	if !mcl.MustCheck(l, mcl.Livelock()) {
		t.Error("expected a polling livelock in the flag protocol")
	}
	// Safety: no recv before the first send, and after send !v the next
	// visible recv carries exactly v (no corruption, no overtaking).
	d := l.Determinize()
	if id := d.LookupLabel("recv !0"); id >= 0 && len(d.Successors(d.Initial(), id)) > 0 {
		t.Error("recv possible before any send")
	}
	s0 := d.Successors(d.Initial(), d.LookupLabel("send !0"))
	if len(s0) != 1 {
		t.Fatal("send !0 rejected")
	}
	if id := d.LookupLabel("recv !1"); id >= 0 && len(d.Successors(s0[0], id)) > 0 {
		t.Error("recv !1 possible after send !0 (message corrupted)")
	}
	if len(d.Successors(s0[0], d.LookupLabel("recv !0"))) != 1 {
		t.Error("recv !0 not available after send !0")
	}
}

func TestMPIFunctionalFlowControl(t *testing.T) {
	// The single flag gives a one-slot mailbox: a second send cannot
	// complete before the first receive.
	l, err := MPIFunctionalModel(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := l.Determinize()
	s0 := d.Successors(d.Initial(), d.LookupLabel("send !0"))
	if len(s0) != 1 {
		t.Fatal("send !0 rejected")
	}
	if id := d.LookupLabel("send !1"); id >= 0 && len(d.Successors(s0[0], id)) > 0 {
		t.Error("second send completed before the receive (flow control broken)")
	}
}

func TestMPIFunctionalValidation(t *testing.T) {
	if _, err := MPIFunctionalModel(context.Background(), 0); err == nil {
		t.Error("0 values accepted")
	}
	if _, err := MPIFunctionalModel(context.Background(), 9); err == nil {
		t.Error("9 values accepted")
	}
}

func TestBuggyCoherenceCaught(t *testing.T) {
	// The forgotten-invalidation bug makes the single-writer invariant
	// violation reachable — the flow catches it with a witness.
	for _, p := range []Protocol{MSI, MESI} {
		l, err := BuggyCoherenceLTS(3, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mcl.Verify(l, mcl.ReachableAction(mcl.Action("violation")))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			t.Errorf("%s: injected coherence bug not detected", p)
		}
		if len(res.Witness) == 0 || res.Witness[len(res.Witness)-1] != "violation" {
			t.Errorf("%s: witness = %v", p, res.Witness)
		}
	}
	// The correct protocol stays clean (regression guard).
	good, err := CoherenceLTS(3, MSI)
	if err != nil {
		t.Fatal(err)
	}
	if !mcl.MustCheck(good, mcl.NeverEnabled(mcl.Action("violation"))) {
		t.Fatal("correct protocol reported a violation")
	}
}
