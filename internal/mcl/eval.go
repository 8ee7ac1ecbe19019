package mcl

import (
	"context"
	"fmt"

	"multival/internal/lts"
)

// StateSet is a characteristic vector over the states of an LTS.
type StateSet []bool

// Count returns the number of states in the set.
func (s StateSet) Count() int {
	n := 0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}

// Sat computes the set of states of l satisfying f. It returns an error if
// f is not well-formed: free variables, or a fixpoint variable under an odd
// number of negations (which would break monotonicity). It observes ctx
// throughout the fixpoint computation and returns ctx's error once it is
// done.
func Sat(ctx context.Context, l *lts.LTS, f Formula) (StateSet, error) {
	e, err := evaluate(ctx, l, f)
	if err != nil {
		return nil, err
	}
	return e.vals[0], nil
}

// Check reports whether the initial state of l satisfies f.
func Check(ctx context.Context, l *lts.LTS, f Formula) (bool, error) {
	set, err := Sat(ctx, l, f)
	if err != nil {
		return false, err
	}
	if l.NumStates() == 0 {
		return false, fmt.Errorf("mcl: empty LTS")
	}
	return set[l.Initial()], nil
}

// MustCheck is Check that panics on error, a cancelled ctx included; for
// statically known formulas.
func MustCheck(ctx context.Context, l *lts.LTS, f Formula) bool {
	ok, err := Check(ctx, l, f)
	if err != nil {
		panic(err)
	}
	return ok
}

// Result bundles the outcome of a verification run for reporting.
type Result struct {
	Formula   string
	Holds     bool
	SatCount  int // number of satisfying states
	NumStates int
	Witness   []string // label trace for reachability-style diagnostics, if computed
}

// Verify evaluates f on l and assembles a Result. If f is (syntactically) a
// reachability property built by Reachable or ReachableAction, a shortest
// witness trace is attached when the property holds.
func Verify(ctx context.Context, l *lts.LTS, f Formula) (Result, error) {
	e, err := evaluate(ctx, l, f)
	if err != nil {
		return Result{}, err
	}
	set := e.vals[0]
	res := Result{
		Formula:   f.String(),
		Holds:     l.NumStates() > 0 && set[l.Initial()],
		SatCount:  set.Count(),
		NumStates: l.NumStates(),
	}
	if res.Holds {
		if w, ok := reachabilityWitness(l, f, e); ok {
			res.Witness = w
		}
	}
	return res, nil
}

// evaluation is one formula evaluated on one LTS: the value of every
// compiled node over the states, with the solver's scratch.
//
// Every closed subformula is evaluated once, bottom-up. Each fixpoint
// block is solved with a counter worklist over (node, state) pairs, in
// the direction of its sign: a least fixpoint starts every member false
// and makes members true, a greatest one starts them true and makes them
// false (the dual). A node "fires" when it takes the block's target
// value v. An "any" node fires on its first operand at v: or and ⟨a⟩ in a
// least block, and and [a] in a greatest one, and every fixpoint node. An
// "all" node counts its operands down and fires at zero; a modality's
// count starts at the state's a-out-degree. A firing at state s notifies
// the node's readers at s, or at the a-predecessors of s for a modality,
// so each transition is visited a bounded number of times per modality:
// time linear in |formula| × (states + transitions) for an
// alternation-free formula (Cleaveland & Steffen 1993).
//
// A child block (an alternation) is re-solved from its bottom each round
// its parent moves, and its newly fired roots feed the parent's worklist,
// which is never restarted.
type evaluation struct {
	ctx  context.Context
	l    *lts.LTS
	p    *program
	vals []StateSet
	cnt  [][]int32  // per "all" member: operands still short of v, per state
	prev []StateSet // per child-block root: the value its parent has read
	work []fired
	seen []bool // scratch: the states an "any" modality fires at
	v    bool   // target value of the block being solved
	cur  int32  // block being solved
	pops int
}

type fired struct{ node, state int32 }

func evaluate(ctx context.Context, l *lts.LTS, f Formula) (*evaluation, error) {
	p, err := compile(l, f)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := l.NumStates()
	e := &evaluation{ctx: ctx, l: l, p: p,
		vals: make([]StateSet, len(p.nodes)),
		cnt:  make([][]int32, len(p.nodes)),
		prev: make([]StateSet, len(p.nodes)),
	}
	for i := range e.vals {
		e.vals[i] = make(StateSet, n)
	}
	for bi := range p.blocks {
		b := &p.blocks[bi]
		for _, m := range b.members {
			if all(p.nodes[m].op, b.nu) {
				e.cnt[m] = make([]int32, n)
			}
		}
		if b.parent >= 0 {
			e.prev[b.root] = make(StateSet, n)
		}
	}
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- { // operands first
		switch b := p.block[i]; {
		case b < 0:
			e.constant(i)
		case p.blocks[b].root == i && p.blocks[b].parent < 0:
			if err := e.solve(b); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// all reports whether an operator waits for all its operands to reach a
// block's target value (and, [a] under mu; or, <a> under nu).
func all(o op, nu bool) bool {
	switch o {
	case opAnd, opBox:
		return !nu
	case opOr, opDia:
		return nu
	}
	return false
}

// constant evaluates a node outside every fixpoint recursion from its
// operands' values.
func (e *evaluation) constant(i int32) {
	nd, out := &e.p.nodes[i], e.vals[i]
	switch nd.op {
	case opTrue:
		for s := range out {
			out[s] = true
		}
	case opAnd:
		a, b := e.vals[nd.a], e.vals[nd.b]
		for s := range out {
			out[s] = a[s] && b[s]
		}
	case opOr:
		a, b := e.vals[nd.a], e.vals[nd.b]
		for s := range out {
			out[s] = a[s] || b[s]
		}
	case opDia:
		mask, a := e.p.masks[nd.act], e.vals[nd.a]
		e.l.EachTransition(func(t lts.Transition) {
			if mask[t.Label] && a[t.Dst] {
				out[t.Src] = true
			}
		})
	case opBox:
		for s := range out {
			out[s] = true
		}
		mask, a := e.p.masks[nd.act], e.vals[nd.a]
		e.l.EachTransition(func(t lts.Transition) {
			if mask[t.Label] && !a[t.Dst] {
				out[t.Src] = false
			}
		})
	}
}

// solve solves root block b and the blocks nested in it. Each frame runs
// rounds: solve the child blocks against the block's current values,
// then advance the block's worklist with what they changed. A block is
// done when a round fires nothing, since its children would then not
// change either.
func (e *evaluation) solve(b int32) error {
	type frame struct {
		b    int32
		next int // next child block to solve this round
	}
	e.begin(b)
	stack := []frame{{b: b}}
	for len(stack) > 0 {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		top := &stack[len(stack)-1]
		blk := &e.p.blocks[top.b]
		if top.next < len(blk.children) {
			c := blk.children[top.next]
			top.next++
			e.begin(c)
			stack = append(stack, frame{b: c})
			continue
		}
		n, err := e.round(top.b)
		if err != nil {
			return err
		}
		if n > 0 && len(blk.children) > 0 {
			blk.round++
			top.next = 0
			continue
		}
		stack = stack[:len(stack)-1]
	}
	return nil
}

// begin starts a solve of block b from the block's bottom: every member
// at the opposite of the target value.
func (e *evaluation) begin(b int32) {
	blk := &e.p.blocks[b]
	blk.round = 1
	for _, m := range blk.members {
		fill(e.vals[m], blk.nu)
	}
}

func fill(s StateSet, v bool) {
	for i := range s {
		s[i] = v
	}
}

// round advances block b by one round and returns how many (node, state)
// pairs fired. The first round of a solve sets every member's count from
// its operands' current values; later rounds feed the states where a
// child block's root newly reached the target value.
func (e *evaluation) round(b int32) (int, error) {
	blk := &e.p.blocks[b]
	e.v, e.cur = !blk.nu, b
	n := 0
	if blk.round == 1 {
		for _, m := range blk.members {
			if err := e.ctx.Err(); err != nil {
				return 0, err
			}
			e.count(m)
		}
		for _, w := range e.work { // fire only after every count is taken
			e.vals[w.node][w.state] = e.v
		}
		n = len(e.work)
		for _, c := range blk.children {
			r := e.p.blocks[c].root
			copy(e.prev[r], e.vals[r])
		}
	} else {
		for _, c := range blk.children {
			r := e.p.blocks[c].root
			now, was := e.vals[r], e.prev[r]
			for s := range now {
				if now[s] == e.v && was[s] != e.v {
					was[s] = e.v
					e.work = append(e.work, fired{r, int32(s)})
				}
			}
		}
	}
	m, err := e.drain()
	return n + m, err
}

// count sets member m's counts from its operands' values and queues the
// states where it fires.
func (e *evaluation) count(m int32) {
	nd, v := &e.p.nodes[m], e.v
	val, cnt := e.vals[m], e.cnt[m]
	queue := func(s int) { e.work = append(e.work, fired{m, int32(s)}) }
	switch nd.op {
	case opAnd, opOr:
		a, b := e.vals[nd.a], e.vals[nd.b]
		for s := range val {
			if val[s] == v {
				continue
			}
			k := int32(0)
			if a[s] == v {
				k++
			}
			if b[s] == v {
				k++
			}
			if cnt != nil {
				cnt[s] = 2 - k
				if k == 2 {
					queue(s)
				}
			} else if k > 0 {
				queue(s)
			}
		}
	case opDia, opBox:
		// One pass over the transitions: an "all" modality counts the
		// matching successors short of v, an "any" one marks the sources
		// with a matching successor at v.
		mask, a := e.p.masks[nd.act], e.vals[nd.a]
		if cnt != nil {
			clear(cnt)
			e.l.EachTransition(func(t lts.Transition) {
				if mask[t.Label] && a[t.Dst] != v {
					cnt[t.Src]++
				}
			})
		} else {
			if e.seen == nil {
				e.seen = make([]bool, len(val))
			}
			clear(e.seen)
			e.l.EachTransition(func(t lts.Transition) {
				if mask[t.Label] && a[t.Dst] == v {
					e.seen[t.Src] = true
				}
			})
		}
		for s := range val {
			if val[s] != v && (cnt != nil && cnt[s] == 0 || cnt == nil && e.seen[s]) {
				queue(s)
			}
		}
	case opMu, opNu:
		a := e.vals[nd.a]
		for s := range val {
			if val[s] != v && a[s] == v {
				queue(s)
			}
		}
	}
}

// drain propagates the queued firings through the current block until
// none is left, and returns how many new firings it made.
func (e *evaluation) drain() (int, error) {
	p, n := e.p, 0
	for len(e.work) > 0 {
		if e.pops++; e.pops&0xfff == 0 {
			if err := e.ctx.Err(); err != nil {
				return 0, err
			}
		}
		w := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		for _, r := range p.parents[w.node] {
			if p.block[r] != e.cur {
				continue
			}
			nd := &p.nodes[r]
			if nd.op != opDia && nd.op != opBox {
				n += e.hit(r, w.state)
				continue
			}
			mask := p.masks[nd.act]
			e.l.EachIncoming(lts.State(w.state), func(t lts.Transition) {
				if mask[t.Label] {
					n += e.hit(r, int32(t.Src))
				}
			})
		}
	}
	return n, nil
}

// hit records that one operand of member r reached the target value at
// state s, and fires r there when that completes it.
func (e *evaluation) hit(r, s int32) int {
	if e.vals[r][s] == e.v {
		return 0
	}
	if cnt := e.cnt[r]; cnt != nil {
		if cnt[s]--; cnt[s] > 0 {
			return 0
		}
	}
	e.vals[r][s] = e.v
	e.work = append(e.work, fired{r, s})
	return 1
}
