package mcl

import (
	"fmt"
	"math"

	"multival/internal/lts"
)

// op is the operator of a compiled node. Compilation pushes negations
// down to the leaves (negation normal form), so a compiled formula is
// monotone in every node and has no negation operator.
type op uint8

const (
	opTrue op = iota
	opFalse
	opOr
	opAnd
	opDia
	opBox
	opMu
	opNu
)

// node is one operator of a compiled formula. Nodes are numbered in
// pre-order, so the subformula rooted at node n occupies a contiguous
// index range starting at n. An operand index greater than the node's
// own is a subformula; one not greater is a fixpoint variable, resolved
// to the node of its binder.
type node struct {
	op   op
	a, b int32 // operands: a and b for or/and, a for modalities and fixpoints
	act  int32 // modalities: index into program.masks
}

// operands returns the operands of n (none, one or two).
func (n *node) operands() []int32 {
	switch n.op {
	case opOr, opAnd:
		return []int32{n.a, n.b}
	case opDia, opBox, opMu, opNu:
		return []int32{n.a}
	}
	return nil
}

func (n *node) fixpoint() bool { return n.op == opMu || n.op == opNu }

// block is a set of fixpoint equations of one sign solved together. A
// fixpoint that has a free variable joins the block of the fixpoint
// around it when both have the same sign (nested fixpoints of one sign
// denote their simultaneous fixpoint), and opens a child block when the
// signs differ: an alternation, re-solved each time its parent moves.
// A closed fixpoint opens a root block, solved exactly once.
type block struct {
	nu       bool
	parent   int32   // enclosing block, -1 for a root block
	root     int32   // the fixpoint node that opened the block
	members  []int32 // fixpoint and operator nodes the block's equations define
	children []int32 // child blocks, each depending on this block's variables
	round    int     // round of the current solve, from 1
}

// program is a formula compiled against one LTS: negation normal form,
// a label mask per modality, and the fixpoint blocks.
type program struct {
	nodes  []node
	masks  [][]bool // masks[i][label] reports whether modality i's action formula matches label
	low    []int32  // smallest variable binder referenced in each node's subformula
	block  []int32  // block of each node, -1 for a node outside every fixpoint's recursion
	blocks []block
	// parents lists, per node, the nodes that read it inside a block: a
	// member of the same block, or of the parent block when the node
	// opens a child block.
	parents [][]int32
}

// closed reports whether node n's subformula has no free variable.
func (p *program) closed(n int32) bool { return p.low[n] >= n }

// compile checks that f is well formed and compiles it against l. The
// walk keeps its own stack, so its depth is bounded by memory rather
// than the goroutine stack. Well-formedness means every variable is
// bound and occurs positively relative to its binder: the negation
// parity at each occurrence equals the parity at the binding fixpoint
// (the monotonicity condition; a whole closed fixpoint under `not` is
// fine).
func compile(l *lts.LTS, f Formula) (*program, error) {
	p := &program{}
	var parent []int32
	type binder struct {
		node     int32
		positive bool
	}
	scope := map[string][]binder{}
	type item struct {
		f        Formula
		positive bool
		parent   int32 // -1 for the root
		second   bool  // operand b of the parent
		unbind   bool  // ends the scope of the binder of variable name
		name     string
	}
	link := func(it item, n int32) {
		if it.parent < 0 {
			return
		}
		if it.second {
			p.nodes[it.parent].b = n
		} else {
			p.nodes[it.parent].a = n
		}
	}
	stack := []item{{f: f, positive: true, parent: -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.unbind {
			bs := scope[it.name]
			scope[it.name] = bs[:len(bs)-1]
			continue
		}
		switch g := it.f.(type) {
		case fNot:
			it.f, it.positive = g.f, !it.positive
			stack = append(stack, it)
			continue
		case fVar:
			bs := scope[g.name]
			if len(bs) == 0 {
				return nil, fmt.Errorf("mcl: free variable %s", g.name)
			}
			if bs[len(bs)-1].positive != it.positive {
				return nil, fmt.Errorf("mcl: variable %s occurs negatively (relative to its binder)", g.name)
			}
			link(it, bs[len(bs)-1].node)
			continue
		}
		n := int32(len(p.nodes))
		link(it, n)
		nd := node{a: -1, b: -1, act: -1}
		pos := it.positive
		operand := func(f Formula, second bool) {
			stack = append(stack, item{f: f, positive: pos, parent: n, second: second})
		}
		switch g := it.f.(type) {
		case fTrue:
			nd.op = pick(pos, opTrue, opFalse)
		case fFalse:
			nd.op = pick(pos, opFalse, opTrue)
		case fAnd:
			nd.op = pick(pos, opAnd, opOr)
			operand(g.b, true)
			operand(g.a, false)
		case fOr:
			nd.op = pick(pos, opOr, opAnd)
			operand(g.b, true)
			operand(g.a, false)
		case fDia:
			nd.op, nd.act = pick(pos, opDia, opBox), p.mask(l, g.act)
			operand(g.f, false)
		case fBox:
			nd.op, nd.act = pick(pos, opBox, opDia), p.mask(l, g.act)
			operand(g.f, false)
		case fMu:
			nd.op = pick(pos, opMu, opNu)
			scope[g.name] = append(scope[g.name], binder{n, pos})
			stack = append(stack, item{unbind: true, name: g.name})
			operand(g.body, false)
		case fNu:
			nd.op = pick(pos, opNu, opMu)
			scope[g.name] = append(scope[g.name], binder{n, pos})
			stack = append(stack, item{unbind: true, name: g.name})
			operand(g.body, false)
		default:
			return nil, fmt.Errorf("mcl: unknown formula %T", it.f)
		}
		p.nodes = append(p.nodes, nd)
		parent = append(parent, it.parent)
	}
	p.analyze(parent)
	return p, nil
}

func pick(positive bool, pos, neg op) op {
	if positive {
		return pos
	}
	return neg
}

// mask matches act against every label of l once and returns the index
// of the resulting mask.
func (p *program) mask(l *lts.LTS, act ActionFormula) int32 {
	m := make([]bool, l.NumLabels())
	for id := range m {
		m[id] = act.Matches(l.LabelName(id))
	}
	p.masks = append(p.masks, m)
	return int32(len(p.masks) - 1)
}

// analyze finds the closed subformulas, groups the fixpoints into blocks
// and indexes the readers of every node inside the blocks.
func (p *program) analyze(parent []int32) {
	n := int32(len(p.nodes))
	p.low = make([]int32, n)
	for i := n - 1; i >= 0; i-- { // operands before their nodes
		low := int32(math.MaxInt32)
		for _, c := range p.nodes[i].operands() {
			if c > i {
				c = p.low[c]
			}
			low = min(low, c)
		}
		p.low[i] = low
	}

	p.block = make([]int32, n)
	for i := int32(0); i < n; i++ { // nodes before their operands
		nd := &p.nodes[i]
		switch {
		case !nd.fixpoint() && p.closed(i):
			p.block[i] = -1
			continue
		case !nd.fixpoint():
			p.block[i] = p.block[parent[i]]
		case p.closed(i):
			p.block[i] = p.open(i, -1)
		default:
			// An open node's parent has a free variable or is its binder,
			// so it always lies in a block.
			pb := p.block[parent[i]]
			if p.blocks[pb].nu == (nd.op == opNu) {
				p.block[i] = pb
			} else {
				p.block[i] = p.open(i, pb)
			}
		}
		b := &p.blocks[p.block[i]]
		b.members = append(b.members, i)
	}

	// A node reads its operand inside a block when the operand is a member
	// of the node's block or the root of one of its child blocks.
	p.parents = make([][]int32, n)
	for i := int32(0); i < n; i++ {
		for _, c := range p.nodes[i].operands() {
			bi, bc := p.block[i], p.block[c]
			if bi >= 0 && bc >= 0 && (bc == bi || p.blocks[bc].parent == bi) {
				p.parents[c] = append(p.parents[c], i)
			}
		}
	}
}

// open starts a block at fixpoint node root, nested in block parent.
func (p *program) open(root, parent int32) int32 {
	b := int32(len(p.blocks))
	p.blocks = append(p.blocks, block{nu: p.nodes[root].op == opNu, parent: parent, root: root})
	if parent >= 0 {
		p.blocks[parent].children = append(p.blocks[parent].children, b)
	}
	return b
}
