package imc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"multival/internal/engine"
	"multival/internal/lts"
)

// LumpCtx minimizes the IMC modulo strong Markovian bisimulation: two
// states are equivalent when they offer the same interactive transitions
// into the same classes and the same aggregated Markovian rate into every
// other class. Lumping preserves both functional behaviour and the
// underlying Markov chain (steady-state and transient measures), which is
// why the Multival flow alternates composition and lumping to keep
// intermediate state spaces small.
//
// Callers typically apply MaximalProgress first; lumping itself does not
// change the maximal-progress semantics. The refinement loop checks ctx
// at every round boundary (stage "lump") and returns ctx.Err() (wrapped)
// when the context is done.
func (m *IMC) LumpCtx(ctx context.Context, progress engine.ProgressFunc) (*IMC, []int, error) {
	n := m.NumStates()
	block := make([]int, n)
	if n == 0 {
		return New(m.Name()), block, nil
	}
	numBlocks := 1
	for round := 0; ; round++ {
		if err := engine.Canceled(ctx); err != nil {
			return nil, nil, fmt.Errorf("imc: lumping canceled at round %d (%d blocks): %w", round, numBlocks, err)
		}
		progress.Report(engine.Progress{Stage: "lump", States: n, Round: round, Blocks: numBlocks})
		sigs := m.signatures(block)
		index := make(map[string]int, numBlocks*2)
		newBlock := make([]int, n)
		next := 0
		var kb [binary.MaxVarintLen64]byte
		for s := 0; s < n; s++ {
			kl := binary.PutUvarint(kb[:], uint64(block[s]))
			key := string(kb[:kl]) + "\x00" + sigs[s]
			id, ok := index[key]
			if !ok {
				id = next
				next++
				index[key] = id
			}
			newBlock[s] = id
		}
		if next == numBlocks {
			block = newBlock
			break
		}
		block = newBlock
		numBlocks = next
	}

	// Quotient.
	q := New(m.Name() + ".lumped")
	q.Inter.AddStates(numBlocks)
	q.Inter.SetInitial(lts.State(block[m.Initial()]))
	type iedge struct {
		src, lab, dst int
	}
	seen := map[iedge]bool{}
	m.Inter.EachTransition(func(t lts.Transition) {
		e := iedge{block[t.Src], t.Label, block[t.Dst]}
		if !seen[e] {
			seen[e] = true
			q.Inter.AddTransition(lts.State(e.src), m.Inter.LabelName(t.Label), lts.State(e.dst))
		}
	})
	// Markovian rates: use one representative per block (all members
	// have identical aggregated rates by construction). Rates into the
	// own block are kept (they are self-loops in the quotient and are
	// dropped at CTMC construction, but preserving them keeps the
	// aggregate exit rate faithful for inspection).
	reprDone := make([]bool, numBlocks)
	for s := 0; s < n; s++ {
		b := block[s]
		if reprDone[b] {
			continue
		}
		reprDone[b] = true
		agg := map[int]float64{}
		m.EachRateFrom(lts.State(s), func(t MTransition) {
			agg[block[t.Dst]] += t.Rate
		})
		dsts := make([]int, 0, len(agg))
		for d := range agg {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			if d == b {
				continue // quotient self-loop: no CTMC meaning
			}
			q.MustAddRate(lts.State(b), lts.State(d), agg[d])
		}
	}
	trimmed := q.Trim()
	return trimmed, block, nil
}

// signatures computes, per state, a canonical encoding of (interactive
// label, destination block) pairs plus aggregated rates into blocks.
func (m *IMC) signatures(block []int) []string {
	n := m.NumStates()
	sigs := make([]string, n)
	var pairs [][2]int
	for s := 0; s < n; s++ {
		pairs = pairs[:0]
		labs, succ := m.Inter.Out(lts.State(s))
		for i := range labs {
			pairs = append(pairs, [2]int{int(labs[i]), block[succ[i]]})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		var buf []byte
		var tmp [binary.MaxVarintLen64]byte
		prev := [2]int{-1, -1}
		first := true
		for _, p := range pairs {
			if !first && p == prev {
				continue
			}
			first = false
			prev = p
			k := binary.PutVarint(tmp[:], int64(p[0]))
			buf = append(buf, tmp[:k]...)
			k = binary.PutVarint(tmp[:], int64(p[1]))
			buf = append(buf, tmp[:k]...)
		}
		buf = append(buf, 0xFF)

		// Aggregated rates into other blocks.
		agg := map[int]float64{}
		m.EachRateFrom(lts.State(s), func(t MTransition) {
			if block[t.Dst] != block[s] {
				agg[block[t.Dst]] += t.Rate
			}
		})
		dsts := make([]int, 0, len(agg))
		for d := range agg {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			k := binary.PutVarint(tmp[:], int64(d))
			buf = append(buf, tmp[:k]...)
			k = binary.PutUvarint(tmp[:], math.Float64bits(roundRate(agg[d])))
			buf = append(buf, tmp[:k]...)
		}
		sigs[s] = string(buf)
	}
	return sigs
}

// roundRate quantizes rates slightly so that sums computed in different
// orders (a+b vs b+a plus float error) still lump together.
func roundRate(r float64) float64 {
	const quantum = 1e-9
	return math.Round(r/quantum) * quantum
}

// CompressTau eliminates deterministic vanishing states: states whose
// entire behaviour is one internal transition (a single tau, no other
// interactive or Markovian transitions). Incoming edges are redirected to
// the tau successor. Under the maximal-progress assumption such states
// take no time and offer no choice, so the reduction preserves weak
// Markovian bisimulation and every performance measure; combined with
// LumpCtx it implements the "stochastic state space minimization" step the
// paper alternates with composition.
func (m *IMC) CompressTau() *IMC {
	n := m.NumStates()
	tau := m.Inter.LookupLabel(lts.Tau)

	// skip[s] = the unique tau successor when s is a deterministic
	// vanishing state, else -1.
	skip := make([]lts.State, n)
	for s := 0; s < n; s++ {
		skip[s] = -1
		if m.RateDegree(lts.State(s)) > 0 || m.Inter.OutDegree(lts.State(s)) != 1 {
			continue
		}
		var only lts.Transition
		m.Inter.EachOutgoing(lts.State(s), func(t lts.Transition) { only = t })
		if only.Label == tau {
			skip[s] = only.Dst
		}
	}
	// Chase chains with cycle detection: a state inside (or leading
	// into) a pure tau cycle keeps its transitions, so ToCTMCCtx can still
	// report the cycle as Zeno.
	target := make([]lts.State, n)
	bypassed := make([]bool, n)
	for s := 0; s < n; s++ {
		cur := lts.State(s)
		hops := 0
		for skip[cur] >= 0 && hops <= n {
			cur = skip[cur]
			hops++
		}
		if hops > n {
			target[s] = lts.State(s) // cycle: keep as-is
			continue
		}
		target[s] = cur
		bypassed[s] = skip[s] >= 0
	}

	out := New(m.Name())
	out.Inter.AddStates(n)
	m.Inter.EachTransition(func(t lts.Transition) {
		if bypassed[t.Src] {
			return // the compressed state's own tau disappears
		}
		out.Inter.AddTransition(t.Src, m.Inter.LabelName(t.Label), target[t.Dst])
	})
	for _, t := range m.Markov {
		if bypassed[t.Src] {
			continue // unreachable by construction (no rates on vanishing)
		}
		out.MustAddRate(t.Src, target[t.Dst], t.Rate)
	}
	out.Inter.SetInitial(target[m.Initial()])
	return out.Trim()
}

// Minimize is the full stochastic minimization step: maximal progress,
// deterministic-tau compression, then strong Markovian lumping, which
// observes ctx at every refinement round.
func (m *IMC) Minimize(ctx context.Context) (*IMC, error) {
	q, _, err := m.MaximalProgress().CompressTau().LumpCtx(ctx, nil)
	return q, err
}
