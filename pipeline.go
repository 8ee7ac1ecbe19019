package multival

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"multival/internal/bisim"
	"multival/internal/compose"
	"multival/internal/imc"
	"multival/internal/lts"
)

// Pipeline is a declarative, lazily executed description of the paper's
// tool flow: compose components, hide gates, minimize, decorate with
// delays, lump, solve. Steps are recorded by the chaining methods and
// nothing runs until a terminal (Model, Perf, Solve) is called with a
// context:
//
//	ms, err := eng.Compose(prod, cons).
//	    Sync("mid").Hide("mid").
//	    Minimize(multival.Branching).
//	    DecorateGateRates(map[string]float64{"put": 1, "get": 2}, "get").
//	    Lump().
//	    Solve(ctx)
//
// When the functional prefix contains a Minimize step, the operands of a
// multi-component composition are minimized concurrently (one goroutine
// per component) before the product is generated — the compositional
// ("smart reduction") strategy of the paper, sound because the supported
// bisimulations are congruences for synchronization and hiding.
//
// A Pipeline value is immutable once built; each chaining method returns
// an extended copy, so prefixes can be shared and rerun safely.
type Pipeline struct {
	eng        *Engine
	components []*Model
	syncGates  []string
	steps      []pipeStep
	err        error
}

type stepKind int

const (
	stepHide stepKind = iota
	stepMinimize
	stepDecorate
	stepDecorateRates
	stepDecorateGateRates
	stepLump
)

func (k stepKind) String() string {
	switch k {
	case stepHide:
		return "Hide"
	case stepMinimize:
		return "Minimize"
	case stepDecorate:
		return "Decorate"
	case stepDecorateRates:
		return "DecorateRates"
	case stepDecorateGateRates:
		return "DecorateGateRates"
	case stepLump:
		return "Lump"
	default:
		return "unknown"
	}
}

type pipeStep struct {
	kind    stepKind
	gates   []string
	rel     Relation
	delays  []Delay
	rates   map[string]float64
	markers []string
}

// Compose starts a pipeline over the given component models. A single
// component is used as-is; several components are composed with multiway
// gate synchronization on the gates given to Sync.
func (e *Engine) Compose(components ...*Model) *Pipeline {
	p := &Pipeline{eng: e, components: components}
	if len(components) == 0 {
		p.err = fmt.Errorf("multival: pipeline needs at least one component")
	}
	return p
}

// extend returns a copy of p with one more step (or a recorded error).
func (p *Pipeline) extend(s pipeStep) *Pipeline {
	q := *p
	q.steps = append(append([]pipeStep(nil), p.steps...), s)
	return &q
}

// Sync declares the synchronization gates of the composition (LOTOS
// multiway synchronization: all components using a gate move together).
func (p *Pipeline) Sync(gates ...string) *Pipeline {
	q := *p
	q.syncGates = append(append([]string(nil), p.syncGates...), gates...)
	return &q
}

// Hide replaces the labels of the given gates by the internal action at
// this point of the pipeline (before or after minimization/decoration).
// An empty gate set is a no-op (so CLI drivers can pass an unset -hide
// flag through without forcing an LTS copy).
func (p *Pipeline) Hide(gates ...string) *Pipeline {
	if len(gates) == 0 {
		return p
	}
	return p.extend(pipeStep{kind: stepHide, gates: gates})
}

// Minimize reduces the current model modulo rel at this point of the
// pipeline. With several components, the first Minimize step also
// triggers concurrent operand pre-minimization (for the congruence
// relations Strong, Branching and DivBranching).
func (p *Pipeline) Minimize(rel Relation) *Pipeline {
	return p.extend(pipeStep{kind: stepMinimize, rel: rel})
}

// Decorate attaches phase-type delays compositionally, turning the
// pipeline's functional model into a performance model. At most one
// decoration step is allowed, and it must precede Lump.
func (p *Pipeline) Decorate(delays ...Delay) *Pipeline {
	return p.extend(pipeStep{kind: stepDecorate, delays: delays})
}

// DecorateRates replaces each exactly matching label by an exponential
// delay of the given rate (the paper's "direct" decoration).
func (p *Pipeline) DecorateRates(rates map[string]float64) *Pipeline {
	return p.extend(pipeStep{kind: stepDecorateRates, rates: rates})
}

// DecorateGateRates is DecorateRates per gate: every label of a gate gets
// the gate's rate. Gates listed in markers keep a visible completion
// event so their throughput remains measurable after decoration. A rate
// gate with no transitions in the model is an error at execution time —
// a typo there would otherwise silently skew the chain.
func (p *Pipeline) DecorateGateRates(rates map[string]float64, markers ...string) *Pipeline {
	return p.extend(pipeStep{kind: stepDecorateGateRates, rates: rates, markers: markers})
}

// Lump minimizes the performance model modulo strong Markovian
// bisimulation. It must follow a decoration step.
func (p *Pipeline) Lump() *Pipeline {
	return p.extend(pipeStep{kind: stepLump})
}

// validate splits the steps into the functional prefix and the
// performance suffix, rejecting out-of-order stages.
func (p *Pipeline) validate() (functional, perf []pipeStep, err error) {
	if p.err != nil {
		return nil, nil, p.err
	}
	decorated := false
	for _, s := range p.steps {
		switch s.kind {
		case stepDecorate, stepDecorateRates, stepDecorateGateRates:
			if decorated {
				return nil, nil, fmt.Errorf("multival: pipeline has two decoration steps; decorate once")
			}
			decorated = true
			perf = append(perf, s)
		case stepLump:
			if !decorated {
				return nil, nil, fmt.Errorf("multival: Lump before any decoration step; decorate first")
			}
			perf = append(perf, s)
		case stepMinimize:
			if decorated {
				return nil, nil, fmt.Errorf("multival: Minimize after decoration; use Lump on performance models")
			}
			functional = append(functional, s)
		case stepHide:
			if decorated {
				perf = append(perf, s)
			} else {
				functional = append(functional, s)
			}
		}
	}
	return functional, perf, nil
}

// preMinimizeRelation returns the relation to pre-minimize composition
// operands with: the relation of the first Minimize step when it is a
// congruence for composition and hiding, or -1 when operands must be
// composed as-is.
func preMinimizeRelation(functional []pipeStep) Relation {
	for _, s := range functional {
		if s.kind == stepMinimize {
			switch s.rel {
			case Strong, Branching, DivBranching:
				return s.rel
			}
			break
		}
	}
	return Relation(-1)
}

// runFunctional materializes the functional part of the pipeline.
func (p *Pipeline) runFunctional(ctx context.Context, functional []pipeStep) (*lts.LTS, error) {
	opts := p.eng.Options()
	cur, err := p.compose(ctx, functional)
	if err != nil {
		return nil, err
	}
	for _, s := range functional {
		switch s.kind {
		case stepHide:
			set := toGateSet(s.gates)
			cur = cur.Hide(func(label string) bool { return set[lts.Gate(label)] })
		case stepMinimize:
			q, _, err := bisim.MinimizeCtx(ctx, cur, s.rel, opts.bisim())
			if err != nil {
				return nil, err
			}
			cur = q
		}
	}
	return cur, nil
}

// compose materializes the composition root: the single component, or the
// synchronized product of all components — pre-minimized concurrently
// when the functional prefix minimizes anyway.
func (p *Pipeline) compose(ctx context.Context, functional []pipeStep) (*lts.LTS, error) {
	opts := p.eng.Options()
	if len(p.components) == 1 {
		return p.components[0].L, nil
	}
	operands := make([]*lts.LTS, len(p.components))
	for i, c := range p.components {
		operands[i] = c.L
	}
	if rel := preMinimizeRelation(functional); rel >= 0 {
		// Independent operand minimizations run concurrently: each
		// operand gets its own goroutine (the refinement engine itself
		// further parallelizes per the Workers option).
		var wg sync.WaitGroup
		errs := make([]error, len(operands))
		for i, l := range operands {
			wg.Add(1)
			go func(i int, l *lts.LTS) {
				defer wg.Done()
				q, _, err := bisim.MinimizeCtx(ctx, l, rel, opts.bisim())
				if err != nil {
					errs[i] = fmt.Errorf("multival: minimizing operand %d: %w", i, err)
					return
				}
				operands[i] = q
			}(i, l)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	n := &compose.Network{
		Components: operands,
		Sync:       p.syncGates,
		MaxStates:  opts.MaxStates,
	}
	// Generation itself is sharded across the engine's workers (the
	// sharded product is state-for-state identical to the sequential
	// one, so worker count never changes a pipeline's result).
	return n.GenerateOpt(ctx, compose.GenOptions{Workers: opts.Workers, Progress: opts.Progress})
}

// Model runs the pipeline's functional part and returns the resulting
// model. It is an error if the pipeline contains performance steps
// (Decorate/Lump); use Perf or Solve for those.
func (p *Pipeline) Model(ctx context.Context) (*Model, error) {
	functional, perf, err := p.validate()
	if err != nil {
		return nil, err
	}
	if len(perf) > 0 {
		return nil, fmt.Errorf("multival: pipeline has performance steps (%s); use Perf or Solve", perf[0].kind)
	}
	l, err := p.runFunctional(ctx, functional)
	if err != nil {
		return nil, err
	}
	return &Model{L: l, eng: p.eng}, nil
}

// Perf runs the whole pipeline and returns the performance model (with
// its artifact caches empty). It is an error if the pipeline has no
// decoration step.
func (p *Pipeline) Perf(ctx context.Context) (*PerfModel, error) {
	functional, perf, err := p.validate()
	if err != nil {
		return nil, err
	}
	if len(perf) == 0 {
		return nil, fmt.Errorf("multival: pipeline has no decoration step; use Model, or add Decorate/DecorateRates")
	}
	l, err := p.runFunctional(ctx, functional)
	if err != nil {
		return nil, err
	}
	opts := p.eng.Options()
	var cur *imc.IMC
	for _, s := range perf {
		switch s.kind {
		case stepDecorate:
			cur, err = imc.Decorate(l, s.delays, opts.MaxStates)
		case stepDecorateRates:
			cur, err = imc.DecorateRates(l, s.rates)
		case stepDecorateGateRates:
			cur, err = decorateGateRates(l, s.rates, s.markers)
		case stepHide:
			cur = cur.Hide(s.gates...)
		case stepLump:
			cur, _, err = cur.LumpCtx(ctx, opts.Progress)
		}
		if err != nil {
			return nil, err
		}
	}
	return newPerfModel(cur, p.eng), nil
}

// Solve runs the whole pipeline and solves the steady state: the terminal
// of the paper's performance-evaluation flow.
func (p *Pipeline) Solve(ctx context.Context) (*Measures, error) {
	pm, err := p.Perf(ctx)
	if err != nil {
		return nil, err
	}
	return pm.SteadyState(ctx)
}

// decorateGateRates expands per-gate rates to the exact labels of the
// gate and applies the direct decoration, keeping a visible marker for
// gates whose throughput must remain measurable.
func decorateGateRates(l *lts.LTS, rates map[string]float64, markers []string) (*imc.IMC, error) {
	markerSet := toGateSet(markers)
	m := imc.FromLTS(l)
	for _, gate := range sortedKeys(rates) {
		rate := rates[gate]
		labels := labelsOfGate(l, gate)
		if len(labels) == 0 {
			return nil, fmt.Errorf("multival: gate %q has no transitions to decorate", gate)
		}
		for _, label := range labels {
			var err error
			if markerSet[gate] {
				m, err = m.ReplaceLabelByRateWithMarker(label, rate, label)
			} else {
				m, err = m.ReplaceLabelByRate(label, rate)
			}
			if err != nil {
				return nil, fmt.Errorf("multival: decorating %q: %w", label, err)
			}
		}
	}
	return m, nil
}

// labelsOfGate returns the sorted labels of a gate occurring on at least
// one transition.
func labelsOfGate(l *lts.LTS, gate string) []string {
	set := map[string]bool{}
	l.EachTransition(func(t lts.Transition) {
		lab := l.LabelName(t.Label)
		if lts.Gate(lab) == gate {
			set[lab] = true
		}
	})
	return sortedKeys(set)
}

func toGateSet(gates []string) map[string]bool {
	set := make(map[string]bool, len(gates))
	for _, g := range gates {
		set[g] = true
	}
	return set
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
