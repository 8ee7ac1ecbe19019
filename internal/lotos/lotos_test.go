package lotos

import (
	"context"
	"strings"
	"testing"

	"multival/internal/bisim"
	"multival/internal/lts"
	"multival/internal/process"
)

func genSrc(t *testing.T, src string) *lts.LTS {
	t.Helper()
	sys, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{MaxStates: 100000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return l
}

func TestSimplePrefix(t *testing.T) {
	l := genSrc(t, "a; b; stop")
	if l.NumStates() != 3 || l.NumTransitions() != 2 {
		t.Fatalf("a;b;stop: %d/%d", l.NumStates(), l.NumTransitions())
	}
}

func TestOffersAndGuards(t *testing.T) {
	l := genSrc(t, "g ?x:0..2 ; [x > 0] -> h !(x*10) ; stop")
	// x in {0,1,2}; only x>0 proceed to h.
	if l.LookupLabel("h !10") < 0 || l.LookupLabel("h !20") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("h !0") >= 0 {
		t.Fatal("guard failed to block x=0")
	}
}

func TestChoiceAndPar(t *testing.T) {
	l := genSrc(t, "(a; stop [] b; stop) ||| c; stop")
	trimmed, _ := l.Trim()
	// States: ({a|b},c), (done,c), ({a|b},done), (done,done) = at least 4.
	if trimmed.NumTransitions() == 0 {
		t.Fatal("no transitions")
	}
	for _, lab := range []string{"a", "b", "c"} {
		if trimmed.LookupLabel(lab) < 0 {
			t.Fatalf("missing %s", lab)
		}
	}
}

func TestSyncGate(t *testing.T) {
	l := genSrc(t, "g !1 ; stop |[g]| g ?x:0..3 ; h !x ; stop")
	if l.LookupLabel("g !1") < 0 || l.LookupLabel("h !1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
	if l.LookupLabel("h !2") >= 0 {
		t.Fatal("negotiation leaked")
	}
}

func TestHideRenameLetExit(t *testing.T) {
	l := genSrc(t, `hide g in rename h -> z in let n := 2+3 in g; h !n; stop`)
	if l.LookupLabel(lts.Tau) < 0 {
		t.Fatal("hide produced no tau")
	}
	if l.LookupLabel("z !5") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestSeqAccept(t *testing.T) {
	l := genSrc(t, "(g ?x:1..2 ; exit(x+10)) >> accept y in h !y ; stop")
	if l.LookupLabel("h !11") < 0 || l.LookupLabel("h !12") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestProcessDefinitions(t *testing.T) {
	src := `
	(* a bounded counter *)
	process Count(n) :=
	    [n > 0] -> dec; Count(n - 1)
	 [] [n == 0] -> zero; stop
	endproc
	behaviour
	    Count(2)
	`
	l := genSrc(t, src)
	trimmed, _ := l.Trim()
	if trimmed.NumStates() != 4 || trimmed.NumTransitions() != 3 {
		t.Fatalf("Count(2): %d/%d\n%s", trimmed.NumStates(), trimmed.NumTransitions(), trimmed.Dump())
	}
}

func TestRecursiveBuffer(t *testing.T) {
	src := `
	process Buf :=
	    put ?x:0..1 ; get !x ; Buf
	endproc
	behaviour Buf
	`
	l := genSrc(t, src)
	q, _ := minimize(l, bisim.Strong)
	// Buffer: 1 empty state + 2 full states (x=0,1) = 3.
	if q.NumStates() != 3 {
		t.Fatalf("buffer minimizes to %d states, want 3\n%s", q.NumStates(), q.Dump())
	}
}

func TestTwoPlacePipelineEquivalence(t *testing.T) {
	// Two one-place buffers chained with a hidden middle gate form a
	// two-place FIFO; check a characteristic weak trace property instead
	// of full equivalence: after two puts, a get must be available.
	src := `
	process Buf1 :=
	    put ?x:0..1 ; mid !x ; Buf1
	endproc
	process Buf2 :=
	    mid ?x:0..1 ; get !x ; Buf2
	endproc
	behaviour
	    hide mid in (Buf1 |[mid]| Buf2)
	`
	l := genSrc(t, src)
	d := l.Determinize()
	// Trace put!0, put!1 must be possible, then get!0 next (FIFO order).
	s := d.Initial()
	step := func(lab string) bool {
		id := d.LookupLabel(lab)
		if id < 0 {
			return false
		}
		succ := d.Successors(s, id)
		if len(succ) != 1 {
			return false
		}
		s = succ[0]
		return true
	}
	if !step("put !0") || !step("put !1") {
		t.Fatal("two puts rejected by 2-place pipeline")
	}
	if !step("get !0") {
		t.Fatal("FIFO order violated: get !0 not available")
	}
}

func TestComments(t *testing.T) {
	l := genSrc(t, `
	-- line comment
	(* block (* nested *) comment *)
	a; stop -- trailing
	`)
	if l.NumTransitions() != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestSpecificationHeader(t *testing.T) {
	sys, err := Parse("specification demo behaviour a; stop")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sys.Name != "demo" {
		t.Fatalf("name = %q", sys.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                             // empty
		"a;",                           // missing continuation
		"process P := stop",            // missing endproc
		"a; stop extra",                // trailing tokens
		"g ?x ; stop",                  // missing domain
		"g ?x:0. .2 ; stop",            // bad dots
		"[x > ] -> a; stop",            // bad expr
		"(a; stop",                     // unbalanced paren
		"hide in a; stop",              // missing gates
		"let x := 1 a; stop",           // missing in
		"a; stop ||| ",                 // dangling par
		"stop [] ",                     // dangling choice
		"(* unterminated",              // comment
		"g !x = 1 ; stop",              // single '='
		"process stop := stop endproc", // keyword as name
		"a | b",                        // lone pipe
		"exit(1,) ; stop",              // hmm exit list trailing comma
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := Parse("a; stop\n   ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}

func TestExprPrecedence(t *testing.T) {
	// 2+3*4 == 14 — guard true; if precedence wrong (20) guard false.
	l := genSrc(t, "[2 + 3 * 4 == 14] -> a; stop")
	if l.NumTransitions() != 1 {
		t.Fatal("arithmetic precedence broken")
	}
	l2 := genSrc(t, "[not (1 == 2) and true or false] -> a; stop")
	if l2.NumTransitions() != 1 {
		t.Fatal("boolean precedence broken")
	}
	// 'if' extends maximally right, so compare a parenthesized form.
	l3 := genSrc(t, "[(if 1 < 2 then 7 else 8) == 7] -> a; stop")
	if l3.NumTransitions() != 1 {
		t.Fatal("if-then-else in guard broken")
	}
}

func TestIfThenElseExpr(t *testing.T) {
	l := genSrc(t, "g !(if 1 < 2 then 7 else 8) ; stop")
	if l.LookupLabel("g !7") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestNegativeDomain(t *testing.T) {
	l := genSrc(t, "g ?x:-1..1 ; stop")
	if l.NumTransitions() != 3 {
		t.Fatalf("domain -1..1: %d transitions", l.NumTransitions())
	}
	if l.LookupLabel("g !-1") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestBoolOffer(t *testing.T) {
	l := genSrc(t, "g ?b:bool ; [b] -> h; stop")
	if l.LookupLabel("g !true") < 0 || l.LookupLabel("g !false") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestDisableOperator(t *testing.T) {
	// A transfer that can be aborted at any time.
	l := genSrc(t, "(load; send; stop) [> abort; stop")
	d := l.Determinize()
	if len(d.Successors(d.Initial(), d.LookupLabel("abort"))) != 1 {
		t.Fatal("abort not possible initially")
	}
	sa := d.Successors(d.Initial(), d.LookupLabel("load"))
	if len(sa) != 1 || len(d.Successors(sa[0], d.LookupLabel("abort"))) != 1 {
		t.Fatal("abort not possible after load")
	}
}

func TestDisablePrecedence(t *testing.T) {
	// [> binds tighter than >>: A [> B >> C parses as (A [> B) >> C.
	l := genSrc(t, "(a; exit) [> k; stop >> c; stop")
	d := l.Determinize()
	sa := d.Successors(d.Initial(), d.LookupLabel("a"))
	if len(sa) != 1 {
		t.Fatal("a rejected")
	}
	if len(d.Successors(sa[0], d.LookupLabel("c"))) != 1 {
		t.Fatal("c should follow a's exit")
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
