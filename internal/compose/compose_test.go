package compose

import (
	"testing"

	"multival/internal/bisim"
	"multival/internal/lts"
	"multival/internal/process"
)

// buf builds a one-place buffer LTS over values 0..1: in ?x then out !x.
func buf(in, out string) *lts.LTS {
	l := lts.New("buf")
	l.AddStates(3)
	l.AddTransition(0, in+" !0", 1)
	l.AddTransition(0, in+" !1", 2)
	l.AddTransition(1, out+" !0", 0)
	l.AddTransition(2, out+" !1", 0)
	l.SetInitial(0)
	return l
}

func TestPairInterleaving(t *testing.T) {
	a := lts.New("a")
	a.AddStates(2)
	a.AddTransition(0, "x", 1)
	b := lts.New("b")
	b.AddStates(2)
	b.AddTransition(0, "y", 1)
	p, err := pair(a, b, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 4 || p.NumTransitions() != 4 {
		t.Fatalf("interleaving product: %d/%d, want 4/4", p.NumStates(), p.NumTransitions())
	}
}

func TestPairSync(t *testing.T) {
	a := lts.New("a")
	a.AddStates(3)
	a.AddTransition(0, "s", 1)
	a.AddTransition(1, "x", 2)
	b := lts.New("b")
	b.AddStates(3)
	b.AddTransition(0, "y", 1)
	b.AddTransition(1, "s", 2)
	p, err := pair(a, b, []string{"s"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// s fires only when both sides are ready: y; s; x (plus x/y
	// interleavings permitted after/before s? a can only do s first).
	// Expected traces: y then s then x. States: (0,0)->(0,1)->(1,2)->(2,2).
	tr, _ := p.Trim()
	if tr.NumStates() != 4 || tr.NumTransitions() != 3 {
		t.Fatalf("sync product:\n%s", tr.Dump())
	}
}

func TestMultiwaySync(t *testing.T) {
	// Three components all sharing gate s: s fires once, jointly.
	mk := func() *lts.LTS {
		l := lts.New("c")
		l.AddStates(2)
		l.AddTransition(0, "s", 1)
		return l
	}
	n := &Network{Components: []*lts.LTS{mk(), mk(), mk()}, Sync: []string{"s"}}
	p, err := n.generate()
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := p.Trim()
	if tr.NumStates() != 2 || tr.NumTransitions() != 1 {
		t.Fatalf("3-way sync:\n%s", tr.Dump())
	}
}

func TestSyncWithValues(t *testing.T) {
	// Producer emits c !0 / c !1; buffer relays. Sync on the full label.
	prod := lts.New("prod")
	prod.AddStates(2)
	prod.AddTransition(0, "c !1", 1)
	n := &Network{
		Components: []*lts.LTS{prod, buf("c", "d")},
		Sync:       []string{"c"},
	}
	p, err := n.generate()
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := p.Trim()
	if tr.LookupLabel("c !1") < 0 || tr.LookupLabel("d !1") < 0 {
		t.Fatalf("labels = %v", tr.Labels())
	}
	if tr.LookupLabel("c !0") >= 0 {
		t.Fatal("c !0 should not fire (producer never offers it)")
	}
}

func TestHideInProduct(t *testing.T) {
	a := lts.New("a")
	a.AddStates(2)
	a.AddTransition(0, "m", 1)
	b := lts.New("b")
	b.AddStates(2)
	b.AddTransition(0, "m", 1)
	n := &Network{Components: []*lts.LTS{a, b}, Sync: []string{"m"}, Hide: []string{"m"}}
	p, err := n.generate()
	if err != nil {
		t.Fatal(err)
	}
	if p.LookupLabel(lts.Tau) < 0 {
		t.Fatalf("hidden sync label should be tau: %v", p.Labels())
	}
}

func TestExplosionBound(t *testing.T) {
	// 2^10 product exceeds a bound of 100.
	var comps []*lts.LTS
	for i := 0; i < 10; i++ {
		l := lts.New("c")
		l.AddStates(2)
		l.AddTransition(0, "a"+string(rune('0'+i)), 1)
		l.AddTransition(1, "b"+string(rune('0'+i)), 0)
		comps = append(comps, l)
	}
	n := &Network{Components: comps, MaxStates: 100}
	if _, err := n.generate(); err == nil {
		t.Fatal("explosion not detected")
	}
}

func TestEmptyNetworkErrors(t *testing.T) {
	if _, err := (&Network{}).generate(); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, _, err := smartReduce(&Network{}, bisim.Branching); err == nil {
		t.Fatal("empty network accepted by SmartReduce")
	}
}

// pipeline builds n one-place buffers chained c0 -> c1 -> ... -> cn; the
// internal gates c1..c(n-1) are sync'd and hidden.
func pipeline(nbuf int) *Network {
	gate := func(i int) string { return "c" + string(rune('0'+i)) }
	var comps []*lts.LTS
	var sync, hide []string
	for i := 0; i < nbuf; i++ {
		comps = append(comps, buf(gate(i), gate(i+1)))
	}
	for i := 1; i < nbuf; i++ {
		sync = append(sync, gate(i))
		hide = append(hide, gate(i))
	}
	return &Network{Components: comps, Sync: sync, Hide: hide}
}

func TestSmartReduceMatchesMonolithic(t *testing.T) {
	for _, nbuf := range []int{2, 3, 4} {
		n := pipeline(nbuf)
		mono, _, err := monolithic(n, bisim.Branching)
		if err != nil {
			t.Fatal(err)
		}
		smart, rep, err := smartReduce(n, bisim.Branching)
		if err != nil {
			t.Fatal(err)
		}
		if !equivalent(mono, smart, bisim.Branching) {
			t.Fatalf("n=%d: smart reduction changed behaviour", nbuf)
		}
		if rep.PeakStates == 0 || len(rep.Steps) == 0 {
			t.Fatal("report not filled in")
		}
	}
}

func TestSmartReducePeakSmaller(t *testing.T) {
	// For a longer pipeline the compositional peak must be strictly
	// smaller than the monolithic product.
	n := pipeline(5)
	_, monoRep, err := monolithic(n, bisim.Branching)
	if err != nil {
		t.Fatal(err)
	}
	_, smartRep, err := smartReduce(n, bisim.Branching)
	if err != nil {
		t.Fatal(err)
	}
	if smartRep.PeakStates >= monoRep.PeakStates {
		t.Fatalf("smart peak %d not smaller than monolithic peak %d",
			smartRep.PeakStates, monoRep.PeakStates)
	}
}

func TestSmartReduceDeterministic(t *testing.T) {
	n := pipeline(3)
	a, _, err := smartReduce(n, bisim.Branching)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := smartReduce(pipeline(3), bisim.Branching)
	if err != nil {
		t.Fatal(err)
	}
	if !lts.Isomorphic(a, b) {
		t.Fatal("SmartReduce is not deterministic")
	}
}

func TestProductAgreesWithProcessCalculus(t *testing.T) {
	// The LTS-level product of two generated components must be strongly
	// bisimilar to generating the parallel term directly.
	mkBuf := func(in, out string) *lts.LTS {
		sys := process.NewSystem("buf")
		sys.Define("B", nil, process.Act(in, []process.Offer{process.Recv("x", 0, 1)},
			process.Act(out, []process.Offer{process.Send(process.V("x"))},
				process.Call{Proc: "B"})))
		sys.SetRoot(process.Call{Proc: "B"})
		return mustGenerate(sys)
	}
	b1 := mkBuf("a", "m")
	b2 := mkBuf("m", "z")
	lvl, err := pair(b1, b2, []string{"m"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	term := process.SyncPar([]string{"m"},
		process.Call{Proc: "B1"}, process.Call{Proc: "B2"})
	sys := process.NewSystem("pair")
	sys.Define("B1", nil, process.Act("a", []process.Offer{process.Recv("x", 0, 1)},
		process.Act("m", []process.Offer{process.Send(process.V("x"))}, process.Call{Proc: "B1"})))
	sys.Define("B2", nil, process.Act("m", []process.Offer{process.Recv("x", 0, 1)},
		process.Act("z", []process.Offer{process.Send(process.V("x"))}, process.Call{Proc: "B2"})))
	sys.SetRoot(term)
	direct := mustGenerate(sys)

	if !equivalent(lvl, direct, bisim.Strong) {
		t.Fatal("LTS-level product disagrees with process-calculus parallel composition")
	}
}

func TestSortedLabels(t *testing.T) {
	a := buf("in", "mid")
	b := buf("mid", "out")
	labs := SortedLabels([]*lts.LTS{a, b})
	if len(labs) != 6 {
		t.Fatalf("SortedLabels = %v", labs)
	}
}

func TestGateSyncBlocksUnoffered(t *testing.T) {
	// Gate-based sync: producer uses gate c, so even labels of c it does
	// not currently offer are blocked for the partner.
	prod := lts.New("prod")
	prod.AddStates(2)
	prod.AddTransition(0, "c !1", 1)
	free := lts.New("free")
	free.AddStates(2)
	free.AddTransition(0, "c !0", 1) // wants c !0, never matched
	p, err := pair(prod, free, []string{"c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := p.Trim()
	if tr.NumTransitions() != 0 {
		t.Fatalf("mismatched gate offers must deadlock:\n%s", tr.Dump())
	}
}
