package compose

import (
	"context"
	"fmt"
	"sort"

	"multival/internal/bisim"
	"multival/internal/lts"
)

// Report records the sizes observed during a (compositional or
// monolithic) generation, quantifying the state-space-explosion savings
// the Multival paper attributes to compositional verification.
type Report struct {
	// PeakStates is the largest intermediate LTS built.
	PeakStates int
	// PeakTransitions is the transition count of that LTS.
	PeakTransitions int
	// FinalStates / FinalTransitions describe the result.
	FinalStates      int
	FinalTransitions int
	// Steps lists one line per composition step, for logging.
	Steps []string
}

func (r *Report) observe(l *lts.LTS, step string) {
	if l.NumStates() > r.PeakStates {
		r.PeakStates = l.NumStates()
		r.PeakTransitions = l.NumTransitions()
	}
	r.Steps = append(r.Steps, fmt.Sprintf("%s: %d states, %d transitions", step, l.NumStates(), l.NumTransitions()))
}

// SmartReduceCtx composes the network compositionally: every component is
// minimized first, then components are composed pairwise (smallest
// estimated product first); after each composition, labels that no
// remaining component synchronizes on and that appear in the Hide set are
// hidden, and the intermediate product is minimized modulo rel. The final
// result equals (modulo rel) the minimization of the monolithic product.
//
// rel should normally be bisim.Branching (or DivBranching to preserve
// livelocks); bisim.Strong is sound but reduces less.
//
// Every intermediate minimization runs through the shared CSR-backed
// refinement engine, and every intermediate product generation through
// the sharded generator, with opt's worker configuration. Both observe ctx
// (and report progress through opt.Progress), so a deadline or cancel
// aborts the compositional strategy between — and inside — its steps.
func SmartReduceCtx(ctx context.Context, n *Network, rel bisim.Relation, opt bisim.Options) (*lts.LTS, *Report, error) {
	if len(n.Components) == 0 {
		return nil, nil, fmt.Errorf("compose: empty network")
	}
	report := &Report{}
	hideSet := toSet(n.Hide)
	syncLabels := n.sortedSyncLabels()
	syncSet := toSet(syncLabels)

	// alphabet returns the set of gates used by an LTS.
	alphabet := func(l *lts.LTS) map[string]bool {
		set := map[string]bool{}
		l.EachTransition(func(t lts.Transition) {
			lab := l.LabelName(t.Label)
			if lab != lts.Tau {
				set[lts.Gate(lab)] = true
			}
		})
		return set
	}

	// Work list of minimized components. Each item carries the sync
	// gates it DECLARES (from the original component): participation in
	// a synchronization is a property of the component's interface, not
	// of which labels happen to survive reduction. If a declared gate
	// loses all its transitions (it became unreachable inside an
	// intermediate product), the gate is globally dead — the item can
	// never offer it — so it is pruned from every other component too,
	// exactly as the monolithic product would block it.
	type item struct {
		l    *lts.LTS
		decl map[string]bool
	}
	items := make([]*item, 0, len(n.Components))
	for i, c := range n.Components {
		decl := map[string]bool{}
		for g := range alphabet(c) {
			if syncSet[g] {
				decl[g] = true
			}
		}
		m, _, err := bisim.MinimizeCtx(ctx, c, rel, opt)
		if err != nil {
			return nil, report, err
		}
		report.observe(c, fmt.Sprintf("component %d", i))
		report.observe(m, fmt.Sprintf("component %d minimized", i))
		items = append(items, &item{l: m, decl: decl})
	}

	// pruneDeadGates removes, to a fixpoint, all transitions of sync
	// gates that some declaring item can no longer offer.
	pruneDeadGates := func() {
		for {
			// Pruning is an optimization: on cancellation stop early and
			// let the next MinimizeCtx round surface ctx.Err.
			if ctx.Err() != nil {
				return
			}
			dead := map[string]bool{}
			for _, it := range items {
				alpha := alphabet(it.l)
				for g := range it.decl {
					if !alpha[g] {
						dead[g] = true
					}
				}
			}
			if len(dead) == 0 {
				return
			}
			for _, it := range items {
				for g := range dead {
					delete(it.decl, g)
				}
				if anyGate(it.l, dead) {
					pruned, _ := dropGates(it.l, dead).Trim()
					it.l = pruned
				}
			}
		}
	}
	pruneDeadGates()

	for len(items) > 1 {
		// Pick the pair with the smallest product estimate among pairs
		// sharing at least one declared sync gate (fall back to the
		// two smallest components).
		bestI, bestJ := -1, -1
		bestCost := 0
		bestShared := false
		share := func(a, b map[string]bool) bool {
			for _, g := range syncLabels {
				if a[g] && b[g] {
					return true
				}
			}
			return false
		}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				cost := items[i].l.NumStates() * items[j].l.NumStates()
				shared := share(items[i].decl, items[j].decl)
				better := false
				switch {
				case bestI < 0:
					better = true
				case shared != bestShared:
					better = shared // prefer pairs that synchronize
				default:
					better = cost < bestCost
				}
				if better {
					bestI, bestJ, bestCost, bestShared = i, j, cost, shared
				}
			}
		}

		a, b := items[bestI], items[bestJ]
		rest := make([]*item, 0, len(items)-2)
		for k, it := range items {
			if k != bestI && k != bestJ {
				rest = append(rest, it)
			}
		}

		// Sync gates for this pair: those DECLARED by either side
		// (multiway sync with a third component is handled because the
		// gate remains visible until every declaring component is
		// inside the composition).
		var pairSync []string
		for _, g := range syncLabels {
			if a.decl[g] || b.decl[g] {
				pairSync = append(pairSync, g)
			}
		}

		prod, err := (&Network{
			Components: []*lts.LTS{a.l, b.l},
			Sync:       pairSync,
			MaxStates:  n.MaxStates,
		}).GenerateOpt(ctx, GenOptions{Workers: opt.Workers, Progress: opt.Progress})
		if err != nil {
			return nil, report, err
		}
		report.observe(prod, fmt.Sprintf("compose(%d states x %d states)", a.l.NumStates(), b.l.NumStates()))

		// Hide gates that are slated for hiding and that no remaining
		// component declares (non-sync hidden gates never interact, so
		// they can always be hidden here).
		restDecl := map[string]bool{}
		for _, it := range rest {
			for g := range it.decl {
				restDecl[g] = true
			}
		}
		mergedDecl := map[string]bool{}
		for g := range a.decl {
			mergedDecl[g] = true
		}
		for g := range b.decl {
			mergedDecl[g] = true
		}
		prod = prod.Hide(func(lab string) bool {
			g := lts.Gate(lab)
			return hideSet[g] && (!syncSet[g] || !restDecl[g])
		})
		for g := range mergedDecl {
			if hideSet[g] && !restDecl[g] {
				delete(mergedDecl, g)
			}
		}

		m, _, err := bisim.MinimizeCtx(ctx, prod, rel, opt)
		if err != nil {
			return nil, report, err
		}
		report.observe(m, "minimized")
		items = append(rest, &item{l: m, decl: mergedDecl})
		pruneDeadGates()
	}

	final := items[0].l
	// Hide anything still in the hide set (e.g. gates used by a single
	// component).
	final = final.Hide(func(lab string) bool { return hideSet[lts.Gate(lab)] })
	final, _, err := bisim.MinimizeCtx(ctx, final, rel, opt)
	if err != nil {
		return nil, report, err
	}
	report.observe(final, "final")
	report.FinalStates = final.NumStates()
	report.FinalTransitions = final.NumTransitions()
	return final, report, nil
}

// anyGate reports whether l has a transition on one of the given gates.
func anyGate(l *lts.LTS, gates map[string]bool) bool {
	found := false
	l.EachTransition(func(t lts.Transition) {
		if !found {
			lab := l.LabelName(t.Label)
			if lab != lts.Tau && gates[lts.Gate(lab)] {
				found = true
			}
		}
	})
	return found
}

// dropGates removes all transitions whose gate is in the set.
func dropGates(l *lts.LTS, gates map[string]bool) *lts.LTS {
	out := lts.New(l.Name())
	out.AddStates(l.NumStates())
	l.EachTransition(func(t lts.Transition) {
		lab := l.LabelName(t.Label)
		if lab != lts.Tau && gates[lts.Gate(lab)] {
			return
		}
		out.AddTransition(t.Src, lab, t.Dst)
	})
	if l.NumStates() > 0 {
		out.SetInitial(l.Initial())
	}
	return out
}

// MonolithicCtx generates the full product, hides, and minimizes,
// reporting the peak (the unminimized product). This is the baseline
// compositional verification is compared against (experiment E8).
// Generation and minimization observe ctx and opt as in SmartReduceCtx.
func MonolithicCtx(ctx context.Context, n *Network, rel bisim.Relation, opt bisim.Options) (*lts.LTS, *Report, error) {
	report := &Report{}
	prod, err := n.GenerateOpt(ctx, GenOptions{Workers: opt.Workers, Progress: opt.Progress})
	if err != nil {
		return nil, report, err
	}
	report.observe(prod, "monolithic product")
	m, _, err := bisim.MinimizeCtx(ctx, prod, rel, opt)
	if err != nil {
		return nil, report, err
	}
	report.observe(m, "minimized")
	report.FinalStates = m.NumStates()
	report.FinalTransitions = m.NumTransitions()
	return m, report, nil
}

// SortedLabels returns the union of the alphabets of the components,
// sorted; useful for building hide sets.
func SortedLabels(comps []*lts.LTS) []string {
	set := map[string]bool{}
	for _, c := range comps {
		for _, lab := range c.VisibleLabels() {
			set[lab] = true
		}
	}
	out := make([]string, 0, len(set))
	for lab := range set {
		out = append(out, lab)
	}
	sort.Strings(out)
	return out
}
