// Package compose implements networks of communicating LTSs and the
// compositional verification strategy of the Multival project: components
// are composed pairwise, internal labels are hidden as soon as no further
// synchronization needs them, and every intermediate product is minimized
// modulo branching bisimulation ("smart reduction", the role played by
// EXP.OPEN and SVL scripts in CADP).
package compose

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"multival/internal/engine"
	"multival/internal/lts"
)

// Network is a parallel composition of component LTSs with multiway,
// gate-based synchronization, following LOTOS semantics: a label such as
// "c !1" belongs to gate "c" (its first space-separated token). For every
// gate in Sync, all components whose alphabet uses that gate must take a
// transition with the identical full label simultaneously (this realizes
// value negotiation); all other labels (and tau) interleave. Gates in Hide
// have all their labels replaced by tau in the product.
type Network struct {
	Components []*lts.LTS
	Sync       []string // gate names
	Hide       []string // gate names
	// MaxStates bounds product generation (0 = DefaultMaxStates).
	MaxStates int
}

// DefaultMaxStates bounds product generation when MaxStates is zero.
const DefaultMaxStates = 1 << 20

// ExplosionError reports that the product exceeded the state bound.
type ExplosionError struct{ Bound int }

func (e *ExplosionError) Error() string {
	return fmt.Sprintf("compose: product exceeds %d states", e.Bound)
}

// Unwrap classifies the error as the shared state-bound sentinel, so
// errors.Is(err, engine.ErrStateBound) holds.
func (e *ExplosionError) Unwrap() error { return engine.ErrStateBound }

// GenOptions configures product generation. The zero value selects the
// package defaults: one generation shard per core, no progress reporting.
type GenOptions struct {
	// Workers is the number of generation shards. Zero or negative
	// selects GOMAXPROCS; one selects the sequential reference
	// generator; above one the reachable-state frontier is partitioned
	// by tuple hash across that many shards (see GenerateOpt). The
	// result is state-for-state identical either way.
	Workers int
	// Progress, when non-nil, observes generation (stage "compose"):
	// intermediate reports carry the states discovered so far, and one
	// final report carries the exact state and transition counts of the
	// finished product.
	Progress engine.ProgressFunc
}

func (o GenOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// genCheckEvery is the number of worklist states between cancellation
// checks and progress reports during product generation.
const genCheckEvery = 1024

// GenerateOpt builds the product LTS of the network on the fly: the
// synchronized product is explored with a reachable-states worklist over
// the components' label-sorted CSR rows, so only reachable tuples are
// ever materialized. Synchronization candidates are located by binary
// search in those rows (lts.LTS.Succ). Generation
// checks ctx at worklist chunks (sequential) or exchange rounds (sharded)
// and returns ctx.Err() (wrapped) when the context is done, so a deadline
// or cancel aborts the product mid-worklist.
//
// With opt.Workers != 1 resolving to more than one shard, the
// reachable-state frontier is partitioned by tuple hash: each shard owns
// its slice of the intern map and a local worklist, cross-shard successors
// are exchanged through per-pair mailboxes drained in rounds (termination
// is a quiescence check), and a final deterministic renumbering pass makes
// the result state-for-state identical to the sequential generator — same
// state numbering, same transition order, same label table — so content
// digests (lts.LTS.Hash) are unaffected by the worker count.
// Networks whose tuples do not pack into 64 bits (see genPlan.packable)
// fall back to the sequential generator.
func (n *Network) GenerateOpt(ctx context.Context, opt GenOptions) (*lts.LTS, error) {
	plan, err := n.prepare()
	if err != nil {
		return nil, err
	}
	if w := opt.workers(); w > 1 && plan.packable {
		return generateSharded(ctx, plan, w, opt.Progress)
	}
	return generateSeq(ctx, plan, opt.Progress)
}

// genPlan is the shared preamble of both generators: the operands and
// the per-component label metadata driving synchronization, all computed
// once per generation. Product labels are pre-interned into plan ids so
// the sharded generator never hashes label strings in its hot loop; the
// final LTS interns label strings in first-transition-encounter order,
// which both generators reproduce identically.
type genPlan struct {
	k     int
	bound int
	comps []*lts.LTS

	// sync[i][id] reports whether label id of component i takes part in
	// a synchronization (and so must not interleave).
	sync [][]bool
	// moveLab[i][id] is the plan label id emitted when component i
	// interleaves on its local label id (tau after hiding); -1 for
	// synchronized labels.
	moveLab [][]int32
	// entries lists the synchronized moves: one entry per label of a
	// synchronized gate, in deterministic (gate, label) order.
	entries []syncEntry
	// labels maps plan label ids to their strings.
	labels []string

	init []lts.State

	// Tuple packing for the sharded generator: component i's state
	// occupies the bits at shift[i] of a packed uint64 key; clear[i]
	// masks them off, so a successor key is two bit operations away from
	// its source key. packable reports whether all components fit in 64
	// bits together (unpackable networks fall back to the sequential
	// generator; with the default 2^20-state product bound this takes
	// dozens of components).
	shift    []uint
	clear    []uint64
	packable bool
}

// pack returns the packed key of a tuple.
func (p *genPlan) pack(tp []lts.State) uint64 {
	var key uint64
	for i, s := range tp {
		key |= uint64(s) << p.shift[i]
	}
	return key
}

// syncEntry is one synchronized move: the label to emit, the component
// indices of the whole gate's participants, and their local label ids
// (-1 when a participant never offers this label, disabling the entry).
type syncEntry struct {
	lab   int32
	parts []int
	ids   []int
}

// prepare checks the components and computes the label metadata shared
// by the sequential and the sharded generator.
func (n *Network) prepare() (*genPlan, error) {
	if len(n.Components) == 0 {
		return nil, fmt.Errorf("compose: empty network")
	}
	p := &genPlan{k: len(n.Components), bound: n.MaxStates}
	if p.bound == 0 {
		p.bound = DefaultMaxStates
	}
	syncSet := toSet(n.Sync)
	hideSet := toSet(n.Hide)

	p.comps = n.Components
	for i, c := range p.comps {
		if c.NumStates() == 0 {
			return nil, fmt.Errorf("compose: component %d is empty", i)
		}
	}

	labelID := map[string]int32{}
	intern := func(lab string) int32 {
		if id, ok := labelID[lab]; ok {
			return id
		}
		id := int32(len(p.labels))
		labelID[lab] = id
		p.labels = append(p.labels, lab)
		return id
	}

	// Per-component label metadata, all indexed by local label id:
	// whether the label participates in a synchronization, and the label
	// to emit in the product (tau when its gate is hidden). Gate usage is
	// restricted to labels occurring on at least one transition.
	gates := make([]map[string]bool, p.k)
	p.sync = make([][]bool, p.k)
	p.moveLab = make([][]int32, p.k)
	gateLabels := map[string]map[string]bool{}
	for i, c := range p.comps {
		nl := c.NumLabels()
		p.sync[i] = make([]bool, nl)
		p.moveLab[i] = make([]int32, nl)
		used := make([]bool, nl)
		c.EachTransition(func(t lts.Transition) { used[t.Label] = true })
		gates[i] = map[string]bool{}
		for id := 0; id < nl; id++ {
			lab := c.LabelName(id)
			g := lts.Gate(lab)
			emit := lab
			if lab != lts.Tau {
				p.sync[i][id] = syncSet[g]
				if hideSet[g] {
					emit = lts.Tau
				}
			}
			p.moveLab[i][id] = intern(emit)
			if p.sync[i][id] {
				p.moveLab[i][id] = -1
			}
			if !used[id] {
				continue
			}
			gates[i][g] = true
			if lab != lts.Tau && syncSet[g] {
				if gateLabels[g] == nil {
					gateLabels[g] = map[string]bool{}
				}
				gateLabels[g][lab] = true
			}
		}
	}

	// One entry per (label of a synchronized gate), with the participants
	// of the whole gate and their local label ids, in sorted order for
	// deterministic state numbering.
	for _, g := range n.sortedSyncLabels() {
		var parts []int
		for i := range p.comps {
			if gates[i][g] {
				parts = append(parts, i)
			}
		}
		if len(parts) == 0 {
			continue
		}
		labs := make([]string, 0, len(gateLabels[g]))
		for lab := range gateLabels[g] {
			labs = append(labs, lab)
		}
		sort.Strings(labs)
		for _, lab := range labs {
			ids := make([]int, len(parts))
			for pi, i := range parts {
				ids[pi] = p.comps[i].LookupLabel(lab)
			}
			outLab := lab
			if hideSet[g] {
				outLab = lts.Tau
			}
			p.entries = append(p.entries, syncEntry{intern(outLab), parts, ids})
		}
	}

	p.init = make([]lts.State, p.k)
	for i, c := range p.comps {
		p.init[i] = c.Initial()
	}

	// Tuple packing layout (see the field comments).
	p.shift = make([]uint, p.k)
	p.clear = make([]uint64, p.k)
	total := uint(0)
	p.packable = true
	for i, c := range p.comps {
		width := uint(bits.Len(uint(c.NumStates() - 1)))
		if total+width > 64 {
			p.packable = false
			break
		}
		p.shift[i] = total
		mask := uint64(1)<<width - 1
		p.clear[i] = ^(mask << total)
		total += width
	}
	return p, nil
}

// encodeTuple appends the fixed-width little-endian encoding of tp to
// dst: the canonical intern-map key of a product tuple in the sequential
// generator (the sharded generator uses packed uint64 keys instead).
func encodeTuple(dst []byte, tp []lts.State) []byte {
	for _, s := range tp {
		dst = append(dst, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return dst
}

// GenerateSeq is the sequential reference generator: one worklist through
// one intern map, the differential anchor of the sharded generator (the
// parallel product is asserted state-for-state identical to it).
func (n *Network) GenerateSeq(ctx context.Context, progress engine.ProgressFunc) (*lts.LTS, error) {
	plan, err := n.prepare()
	if err != nil {
		return nil, err
	}
	return generateSeq(ctx, plan, progress)
}

// generateSeq runs the sequential worklist over a prepared plan.
func generateSeq(ctx context.Context, plan *genPlan, progress engine.ProgressFunc) (*lts.LTS, error) {
	bound := plan.bound
	comps := plan.comps

	out := lts.New("product")
	type tuple []lts.State
	encode := func(tp tuple) string { return string(encodeTuple(nil, tp)) }
	index := map[string]lts.State{}
	var tuples []tuple

	intern := func(tp tuple) (lts.State, error) {
		key := encode(tp)
		if s, ok := index[key]; ok {
			return s, nil
		}
		if len(tuples) >= bound {
			return 0, &ExplosionError{bound}
		}
		s := out.AddState()
		index[key] = s
		tuples = append(tuples, tp)
		return s, nil
	}

	if _, err := intern(append(tuple(nil), plan.init...)); err != nil {
		return nil, err
	}
	out.SetInitial(0)

	emit := func(src lts.State, label string, dst tuple) error {
		d, err := intern(dst)
		if err != nil {
			return err
		}
		out.AddTransition(src, label, d)
		return nil
	}

	options := make([][]int32, 8)
	for qi := 0; qi < len(tuples); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("compose: product canceled at %d states: %w", len(tuples), err)
			}
			progress.Report(engine.Progress{Stage: "compose", States: len(tuples)})
		}
		src := lts.State(qi)
		tp := tuples[qi]

		// Interleaved moves (tau and non-sync labels).
		for i, c := range comps {
			labs, dsts := c.Out(tp[i])
			for ti := range labs {
				id := labs[ti]
				if plan.sync[i][id] {
					continue
				}
				nt := append(tuple(nil), tp...)
				nt[i] = lts.State(dsts[ti])
				if err := emit(src, plan.labels[plan.moveLab[i][id]], nt); err != nil {
					return nil, err
				}
			}
		}

		// Synchronized moves, per sync label with all participants
		// simultaneously enabled.
		for ei := range plan.entries {
			se := &plan.entries[ei]
			if cap(options) < len(se.parts) {
				options = make([][]int32, len(se.parts))
			}
			options = options[:len(se.parts)]
			enabled := true
			for pi, i := range se.parts {
				if se.ids[pi] < 0 {
					enabled = false
					break
				}
				dsts := comps[i].Succ(tp[i], se.ids[pi])
				if len(dsts) == 0 {
					enabled = false
					break
				}
				options[pi] = dsts
			}
			if !enabled {
				continue
			}
			// Cartesian product of participant destinations.
			idxs := make([]int, len(se.parts))
			for {
				nt := append(tuple(nil), tp...)
				for pi, i := range se.parts {
					nt[i] = lts.State(options[pi][idxs[pi]])
				}
				if err := emit(src, plan.labels[se.lab], nt); err != nil {
					return nil, err
				}
				// Advance odometer.
				p := len(idxs) - 1
				for p >= 0 {
					idxs[p]++
					if idxs[p] < len(options[p]) {
						break
					}
					idxs[p] = 0
					p--
				}
				if p < 0 {
					break
				}
			}
		}
	}
	progress.Report(engine.Progress{
		Stage: "compose", States: out.NumStates(), Transitions: out.NumTransitions(), Done: true,
	})
	return out, nil
}

// sortedSyncLabels returns the deduplicated sync labels in sorted order so
// product generation is deterministic.
func (n *Network) sortedSyncLabels() []string {
	out := append([]string(nil), n.Sync...)
	sort.Strings(out)
	w := 0
	for i, lab := range out {
		if i == 0 || lab != out[i-1] {
			out[w] = lab
			w++
		}
	}
	return out[:w]
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
