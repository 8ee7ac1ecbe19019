package chp

import (
	"context"
	"strings"
	"testing"

	"multival/internal/bisim"
	"multival/internal/lts"
	"multival/internal/mcl"
	"multival/internal/process"
)

func translate(t *testing.T, procs []*Process, opts Options) *lts.LTS {
	t.Helper()
	sys, err := Translate(procs, opts)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{MaxStates: 200000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return l
}

// producer sends 0,1 cyclically on ch.
func producer(ch string) *Process {
	return &Process{
		Name: "Prod",
		Vars: []VarDecl{{Name: "v", Init: 0, Lo: 0, Hi: 1}},
		Body: Loop{Body: Seq{
			Send{Ch: ch, E: process.V("v")},
			Assign{Var: "v", E: process.Mod(process.Add(process.V("v"), process.Int(1)), process.Int(2))},
		}},
	}
}

func consumer(ch, out string) *Process {
	return &Process{
		Name: "Cons",
		Vars: []VarDecl{{Name: "x", Init: 0, Lo: 0, Hi: 1}},
		Body: Loop{Body: Seq{
			Recv{Ch: ch, Var: "x"},
			Send{Ch: out, E: process.V("x")},
		}},
	}
}

func TestProducerConsumer(t *testing.T) {
	l := translate(t, []*Process{producer("c"), consumer("c", "out")}, Options{})
	if l.LookupLabel("c !0") < 0 || l.LookupLabel("c !1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("out !0") < 0 || l.LookupLabel("out !1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	// Deadlock-free: producer and consumer alternate forever.
	if !mcl.MustCheck(context.Background(), l, mcl.DeadlockFree()) {
		t.Fatal("producer-consumer deadlocked")
	}
	// Values alternate: every out!0 is inevitably followed by an out!1.
	if !mcl.MustCheck(context.Background(), l, mcl.Response(mcl.Action("out !0"), mcl.Action("out !1"))) {
		t.Fatal("out values do not alternate")
	}
}

func TestAssignThreadsState(t *testing.T) {
	// A counter emitting 0,1,2 cyclically.
	p := &Process{
		Name: "Cnt",
		Vars: []VarDecl{{Name: "n", Init: 0, Lo: 0, Hi: 2}},
		Body: Loop{Body: Seq{
			Send{Ch: "o", E: process.V("n")},
			Assign{Var: "n", E: process.Mod(process.Add(process.V("n"), process.Int(1)), process.Int(3))},
		}},
	}
	l := translate(t, []*Process{p}, Options{})
	q, _ := minimize(l, bisim.Strong)
	if q.NumStates() != 3 {
		t.Fatalf("counter should have 3 states, got %d\n%s", q.NumStates(), q.Dump())
	}
}

func TestSelGuards(t *testing.T) {
	// Emit "low" while n<2 else "high", incrementing to 3 then stop.
	p := &Process{
		Name: "Sel",
		Vars: []VarDecl{{Name: "n", Init: 0, Lo: 0, Hi: 3}},
		Body: Loop{Body: Sel{Branches: []Branch{
			{Guard: process.Lt(process.V("n"), process.Int(2)),
				Body: Seq{Send{Ch: "low", E: process.V("n")}, Assign{Var: "n", E: process.Add(process.V("n"), process.Int(1))}}},
			{Guard: process.Ge(process.V("n"), process.Int(2)),
				Body: Send{Ch: "high", E: process.V("n")}},
		}}},
	}
	l := translate(t, []*Process{p}, Options{})
	if l.LookupLabel("low !0") < 0 || l.LookupLabel("low !1") < 0 || l.LookupLabel("high !2") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("low !2") >= 0 {
		t.Fatal("guard violated")
	}
}

func TestCommunicationChoice(t *testing.T) {
	// A merge: receive from a or from b, forward to o (probe-style
	// selection expressed by communication-led branches).
	m := &Process{
		Name: "Merge",
		Vars: []VarDecl{{Name: "x", Init: 0, Lo: 0, Hi: 1}},
		Body: Loop{Body: Sel{Branches: []Branch{
			{Body: Seq{Recv{Ch: "a", Var: "x"}, Send{Ch: "o", E: process.V("x")}}},
			{Body: Seq{Recv{Ch: "b", Var: "x"}, Send{Ch: "o", E: process.V("x")}}},
		}}},
	}
	pa := &Process{Name: "PA", Body: Loop{Body: Send{Ch: "a", E: process.Int(0)}}}
	pb := &Process{Name: "PB", Body: Loop{Body: Send{Ch: "b", E: process.Int(1)}}}
	l := translate(t, []*Process{m, pa, pb}, Options{})
	if l.LookupLabel("o !0") < 0 || l.LookupLabel("o !1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if !mcl.MustCheck(context.Background(), l, mcl.DeadlockFree()) {
		t.Fatal("merge deadlocked")
	}
}

func TestHandshakeExpansion(t *testing.T) {
	l := translate(t, []*Process{producer("c"), consumer("c", "out")},
		Options{HandshakeExpand: true})
	if l.LookupLabel("c_req !0") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("c_ack") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	// Handshake-expanded and plain versions are weak-trace equivalent
	// after hiding the acks and renaming reqs back to the channel names.
	plain := translate(t, []*Process{producer("c"), consumer("c", "out")}, Options{})
	expanded := l.Relabel(func(lab string) string {
		switch {
		case strings.HasSuffix(lab, "_ack"):
			return lts.Tau
		case strings.Contains(lab, "_req"):
			return strings.Replace(lab, "_req", "", 1)
		}
		return lab
	})
	if !equivalent(plain, expanded, bisim.Trace) {
		t.Fatal("handshake expansion changed observable traces")
	}
}

func TestSendRecv(t *testing.T) {
	// Client sends a request value and receives a response on the same
	// channel; server doubles it.
	client := &Process{
		Name: "Client",
		Vars: []VarDecl{{Name: "r", Init: 0, Lo: 0, Hi: 6}},
		Body: Loop{Body: Seq{
			SendRecv{Ch: "rpc", E: process.Int(3), Var: "r"},
			Send{Ch: "got", E: process.V("r")},
		}},
	}
	server := &Process{
		Name: "Server",
		Vars: []VarDecl{{Name: "q", Init: 0, Lo: 0, Hi: 3}},
		Body: Loop{Body: RecvSend{Ch: "rpc", Var: "q", E: process.Mul(process.V("q"), process.Int(2))}},
	}
	// The server replies with twice the request in the same rendezvous.
	l := translate(t, []*Process{client, server}, Options{})
	if l.LookupLabel("rpc !3 !6") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("got !6") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if !mcl.MustCheck(context.Background(), l, mcl.DeadlockFree()) {
		t.Fatal("RPC deadlocked")
	}
}

func TestSkipAndEmptySeq(t *testing.T) {
	p := &Process{Name: "S", Body: Seq{Skip{}, Seq{}, Send{Ch: "a", E: process.Int(0)}}}
	l := translate(t, []*Process{p}, Options{})
	if l.LookupLabel("a !0") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestErrors(t *testing.T) {
	if _, err := Translate(nil, Options{}); err == nil {
		t.Error("empty process list accepted")
	}
	bad := &Process{Name: "B", Body: Assign{Var: "zzz", E: process.Int(0)}}
	if _, err := Translate([]*Process{bad}, Options{}); err == nil {
		t.Error("assignment to undeclared variable accepted")
	}
	bad2 := &Process{Name: "B", Body: Recv{Ch: "c", Var: "zzz"}}
	if _, err := Translate([]*Process{bad2}, Options{}); err == nil {
		t.Error("receive into undeclared variable accepted")
	}
	dup := &Process{Name: "D", Vars: []VarDecl{{Name: "x"}, {Name: "x"}}, Body: Skip{}}
	if _, err := Translate([]*Process{dup}, Options{}); err == nil {
		t.Error("duplicate variable accepted")
	}
	badSeq := &Process{Name: "B", Body: Seq{Skip{}, Assign{Var: "u", E: process.Int(0)}}}
	if _, err := Translate([]*Process{badSeq}, Options{}); err == nil {
		t.Error("error in sequence tail not surfaced")
	}
}

func TestSharedChannels(t *testing.T) {
	procs := []*Process{producer("c"), consumer("c", "out")}
	shared := SharedChannels(procs)
	if len(shared) != 1 || shared[0] != "c" {
		t.Fatalf("SharedChannels = %v", shared)
	}
}

func TestGateNames(t *testing.T) {
	if g := GateNames("c", Options{}); len(g) != 1 || g[0] != "c" {
		t.Fatalf("GateNames = %v", g)
	}
	if g := GateNames("c", Options{HandshakeExpand: true}); len(g) != 2 || g[0] != "c_req" || g[1] != "c_ack" {
		t.Fatalf("GateNames expanded = %v", g)
	}
}

func TestRecvDomainOverride(t *testing.T) {
	p := &Process{
		Name: "R",
		Vars: []VarDecl{{Name: "x", Init: 0, Lo: 0, Hi: 9}},
		Body: Recv{Ch: "c", Var: "x"},
	}
	src := &Process{Name: "S", Body: Send{Ch: "c", E: process.Int(1)}}
	sys, err := Translate([]*Process{p, src}, Options{RecvDomain: map[string][2]int{"c": {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.LookupLabel("c !1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

// minimize is bisim.MinimizeCtx without cancellation.
func minimize(l *lts.LTS, rel bisim.Relation) (*lts.LTS, []int) {
	q, block, err := bisim.MinimizeCtx(context.Background(), l, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return q, block
}

// equivalent is bisim.EquivalentCtx without cancellation.
func equivalent(a, b *lts.LTS, rel bisim.Relation) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}
