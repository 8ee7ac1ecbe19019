package process

import (
	"strings"

	"multival/internal/lts"
)

// store is the hash-consed term store behind one GenerateCtx call. Every
// term reached during generation gets a dense ID, and two terms get the
// same ID iff their canonical strings are equal (the state-identity
// contract of Behavior.String):
//
//   - the static operators Par, Hide and Rename are keyed structurally by
//     operator, printed gate set or rename map, and child IDs, so a
//     global state is never printed;
//   - every other (sequential) term is keyed by its canonical string,
//     printed once when it is first reached.
//
// Terms are closed and immutable, so the moves of an ID are a pure
// function of its term: they are computed once and memoized, and each
// successor of a static operator is a single table lookup. A store is
// never shared between calls.
type store struct {
	defs map[string]*ProcDef
	ent  []entry

	seqIDs map[string]int32 // canonical string -> sequential term
	opIDs  map[opKey]int32  // structural key -> static operator

	params   []opParam // parameter ID -> gate set or rename map
	paramIDs map[paramKey]int32

	acts   []action // action ID -> gate, values and label
	actIDs map[actKey]int32
}

// entry is one interned term with its memoized moves.
type entry struct {
	term  Behavior
	key   opKey
	moves []move
	done  bool      // moves has been computed
	state lts.State // the generated LTS state of a global state, or -1
}

// opKind discriminates the structural keys of static operators.
type opKind uint8

const (
	opSeq opKind = iota // a sequential term, keyed by its canonical string
	opPar
	opHide
	opRename
)

// opKey is the structural identity of a static operator: its kind, its
// parameter, and its children.
type opKey struct {
	kind  opKind
	param int32 // parameter ID
	a, b  int32 // child IDs; b is -1 for Hide and Rename
}

// opParam is the parameter of a static operator: the gate set of Par and
// Hide, or the map of Rename.
type opParam struct {
	gates []string
	ren   map[string]string
}

// paramKey identifies a parameter by its operator and its printed form,
// the part of the canonical string it contributes.
type paramKey struct {
	kind    opKind
	printed string
}

// move is a memoized transition of an interned term. It holds no
// pointers, so memoized move lists cost the garbage collector nothing.
type move struct {
	act  int32 // action ID
	next int32 // ID of the successor term
}

// action is the observable part of a step: two moves synchronize or
// share a label exactly when they have the same action.
type action struct {
	gate   string  // gate name; lts.Tau for internal steps
	args   []Value // communicated values
	isExit bool    // successful termination (the LOTOS delta action)
	label  string  // CADP-style transition label
	ltsID  int     // label ID in the generated LTS, or -1
}

// actKey identifies an action: the label determines the values once the
// gate and the exit flag are fixed.
type actKey struct {
	isExit      bool
	gate, label string
}

func newStore(defs map[string]*ProcDef) *store {
	return &store{
		defs:     defs,
		seqIDs:   make(map[string]int32),
		opIDs:    make(map[opKey]int32),
		paramIDs: make(map[paramKey]int32),
		actIDs:   make(map[actKey]int32),
	}
}

// intern returns the ID of a term, interning it and its static subterms.
func (st *store) intern(b Behavior) int32 {
	switch t := b.(type) {
	case Par:
		p := st.param(opPar, strings.Join(t.Sync, ","), opParam{gates: t.Sync})
		return st.op(opKey{opPar, p, st.intern(t.A), st.intern(t.B)})
	case Hide:
		p := st.param(opHide, strings.Join(t.Gates, ","), opParam{gates: t.Gates})
		return st.op(opKey{opHide, p, st.intern(t.B), -1})
	case Rename:
		p := st.param(opRename, renameString(t.Map), opParam{ren: t.Map})
		return st.op(opKey{opRename, p, st.intern(t.B), -1})
	}
	key := b.String()
	if id, ok := st.seqIDs[key]; ok {
		return id
	}
	id := st.add(b, opKey{kind: opSeq})
	st.seqIDs[key] = id
	return id
}

// op returns the ID of the static operator with the given key, building
// its term from the children's terms on first use.
func (st *store) op(k opKey) int32 {
	if id, ok := st.opIDs[k]; ok {
		return id
	}
	var t Behavior
	switch k.kind {
	case opPar:
		t = Par{Sync: st.params[k.param].gates, A: st.ent[k.a].term, B: st.ent[k.b].term}
	case opHide:
		t = Hide{Gates: st.params[k.param].gates, B: st.ent[k.a].term}
	case opRename:
		t = Rename{Map: st.params[k.param].ren, B: st.ent[k.a].term}
	}
	id := st.add(t, k)
	st.opIDs[k] = id
	return id
}

func (st *store) add(t Behavior, k opKey) int32 {
	st.ent = append(st.ent, entry{term: t, key: k, state: -1})
	return int32(len(st.ent) - 1)
}

// param interns the parameter of a static operator.
func (st *store) param(kind opKind, printed string, p opParam) int32 {
	k := paramKey{kind, printed}
	if id, ok := st.paramIDs[k]; ok {
		return id
	}
	id := int32(len(st.params))
	st.params = append(st.params, p)
	st.paramIDs[k] = id
	return id
}

// action interns the action of a step.
func (st *store) action(s step) int32 {
	k := actKey{s.isExit, s.gate, s.label()}
	if id, ok := st.actIDs[k]; ok {
		return id
	}
	id := int32(len(st.acts))
	st.acts = append(st.acts, action{gate: s.gate, args: s.args, isExit: s.isExit, label: k.label, ltsID: -1})
	st.actIDs[k] = id
	return id
}

// movesOf returns the memoized moves of an interned term. depth counts
// the structural rewrites above it, as for steps; an ID whose moves are
// still being computed is not memoized yet, so unguarded recursion
// through a static operator still reaches the unfold limit.
func (st *store) movesOf(id int32, depth int) ([]move, error) {
	if e := &st.ent[id]; e.done {
		return e.moves, nil
	}
	if depth > maxUnfold {
		return nil, unguardedError(st.ent[id].term)
	}
	var ms []move
	var err error
	switch k := st.ent[id].key; k.kind {
	case opPar:
		ms, err = st.parMoves(k, depth)
	case opHide:
		ms, err = st.hideMoves(k, depth)
	case opRename:
		ms, err = st.renameMoves(k, depth)
	default:
		ms, err = st.seqMoves(st.ent[id].term, depth)
	}
	if err != nil {
		return nil, err
	}
	e := &st.ent[id]
	e.moves, e.done = ms, true
	return ms, nil
}

// seqMoves derives the moves of a sequential term through steps and
// interns each successor.
func (st *store) seqMoves(b Behavior, depth int) ([]move, error) {
	ss, err := st.steps(b, depth)
	if err != nil {
		return nil, err
	}
	ms := make([]move, len(ss))
	for i, s := range ss {
		ms[i] = move{st.action(s), st.intern(s.next)}
	}
	return ms, nil
}

// parMoves implements the LOTOS parallel operator: interleave moves whose
// gate is outside the synchronization set, match moves pairwise on
// synchronized gates (same gate, same values), and synchronize successful
// termination.
func (st *store) parMoves(k opKey, depth int) ([]move, error) {
	ma, err := st.movesOf(k.a, depth+1)
	if err != nil {
		return nil, err
	}
	mb, err := st.movesOf(k.b, depth+1)
	if err != nil {
		return nil, err
	}
	sync := st.params[k.param].gates
	interleaves := func(m move) bool {
		a := &st.acts[m.act]
		return !a.isExit && (a.gate == lts.Tau || !gateIn(a.gate, sync))
	}
	par := func(a, b int32) int32 { return st.op(opKey{opPar, k.param, a, b}) }
	out := make([]move, 0, len(ma)+len(mb))
	for _, x := range ma {
		if interleaves(x) {
			out = append(out, move{x.act, par(x.next, k.b)})
		}
	}
	for _, y := range mb {
		if interleaves(y) {
			out = append(out, move{y.act, par(k.a, y.next)})
		}
	}
	// Synchronized gates and successful termination need the same action
	// on both sides (same gate, same values); for exits, agreeing result
	// values keep the '>>' binding well-defined.
	for _, x := range ma {
		if interleaves(x) {
			continue
		}
		for _, y := range mb {
			if x.act == y.act {
				out = append(out, move{x.act, par(x.next, y.next)})
			}
		}
	}
	return out, nil
}

// hideMoves turns the moves on hidden gates into internal steps.
func (st *store) hideMoves(k opKey, depth int) ([]move, error) {
	inner, err := st.movesOf(k.a, depth+1)
	if err != nil {
		return nil, err
	}
	gates := st.params[k.param].gates
	out := make([]move, len(inner))
	for i, m := range inner {
		if a := &st.acts[m.act]; !a.isExit && gateIn(a.gate, gates) {
			m.act = st.action(step{gate: lts.Tau})
		}
		out[i] = move{m.act, st.op(opKey{opHide, k.param, m.next, -1})}
	}
	return out, nil
}

// renameMoves relabels the visible moves through the rename map.
func (st *store) renameMoves(k opKey, depth int) ([]move, error) {
	inner, err := st.movesOf(k.a, depth+1)
	if err != nil {
		return nil, err
	}
	out := make([]move, len(inner))
	for i, m := range inner {
		if a := st.acts[m.act]; !a.isExit && a.gate != lts.Tau {
			if to, ok := st.params[k.param].ren[a.gate]; ok {
				m.act = st.action(step{gate: to, args: a.args})
			}
		}
		out[i] = move{m.act, st.op(opKey{opRename, k.param, m.next, -1})}
	}
	return out, nil
}
