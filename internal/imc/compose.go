package imc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"multival/internal/lts"
)

// DefaultMaxStates bounds composition when maxStates is zero.
const DefaultMaxStates = 1 << 20

// Compose builds the parallel composition of two IMCs with gate-based
// multiway synchronization on syncGates (LOTOS semantics, as in package
// compose): interactive transitions of a synchronized gate require both
// sides to take the identical label simultaneously; other interactive
// transitions and all Markovian transitions interleave (exponential delays
// are memoryless, so no synchronization of delays is needed — this is the
// central compositionality property of IMCs).
func Compose(a, b *IMC, syncGates []string, maxStates int) (*IMC, error) {
	if a.NumStates() == 0 || b.NumStates() == 0 {
		return nil, fmt.Errorf("imc: composing empty IMC")
	}
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	sync := map[string]bool{}
	for _, g := range syncGates {
		sync[g] = true
	}
	// Gate alphabets to decide blocking semantics.
	gatesA, gatesB := gateSet(a.Inter), gateSet(b.Inter)

	out := New(fmt.Sprintf("(%s||%s)", a.Name(), b.Name()))
	type pair struct{ x, y lts.State }
	encode := func(p pair) uint64 {
		var buf [8]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(p.x))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.y))
		return binary.LittleEndian.Uint64(buf[:])
	}
	index := map[uint64]lts.State{}
	var pairs []pair
	intern := func(p pair) (lts.State, error) {
		k := encode(p)
		if s, ok := index[k]; ok {
			return s, nil
		}
		if len(pairs) >= maxStates {
			return 0, fmt.Errorf("imc: composition exceeds %d states", maxStates)
		}
		s := out.AddState()
		index[k] = s
		pairs = append(pairs, p)
		return s, nil
	}
	if _, err := intern(pair{a.Initial(), b.Initial()}); err != nil {
		return nil, err
	}
	out.Inter.SetInitial(0)

	for qi := 0; qi < len(pairs); qi++ {
		src := lts.State(qi)
		p := pairs[qi]

		// Interactive moves of a.
		var aerr error
		a.Inter.EachOutgoing(p.x, func(t lts.Transition) {
			if aerr != nil {
				return
			}
			lab := a.Inter.LabelName(t.Label)
			g := lts.Gate(lab)
			if lab != lts.Tau && sync[g] {
				if !gatesB[g] {
					// b never uses the gate: a moves alone.
					dst, err := intern(pair{t.Dst, p.y})
					if err != nil {
						aerr = err
						return
					}
					out.Inter.AddTransition(src, lab, dst)
					return
				}
				// Match b's identical labels.
				id := b.Inter.LookupLabel(lab)
				if id < 0 {
					return
				}
				b.Inter.EachOutgoing(p.y, func(u lts.Transition) {
					if aerr != nil || u.Label != id {
						return
					}
					dst, err := intern(pair{t.Dst, u.Dst})
					if err != nil {
						aerr = err
						return
					}
					out.Inter.AddTransition(src, lab, dst)
				})
				return
			}
			dst, err := intern(pair{t.Dst, p.y})
			if err != nil {
				aerr = err
				return
			}
			out.Inter.AddTransition(src, lab, dst)
		})
		if aerr != nil {
			return nil, aerr
		}

		// Interactive moves of b (non-sync; sync handled above).
		var berr error
		b.Inter.EachOutgoing(p.y, func(t lts.Transition) {
			if berr != nil {
				return
			}
			lab := b.Inter.LabelName(t.Label)
			g := lts.Gate(lab)
			if lab != lts.Tau && sync[g] {
				if !gatesA[g] {
					dst, err := intern(pair{p.x, t.Dst})
					if err != nil {
						berr = err
						return
					}
					out.Inter.AddTransition(src, lab, dst)
				}
				return
			}
			dst, err := intern(pair{p.x, t.Dst})
			if err != nil {
				berr = err
				return
			}
			out.Inter.AddTransition(src, lab, dst)
		})
		if berr != nil {
			return nil, berr
		}

		// Markovian moves interleave.
		var merr error
		a.EachRateFrom(p.x, func(t MTransition) {
			if merr != nil {
				return
			}
			dst, err := intern(pair{t.Dst, p.y})
			if err != nil {
				merr = err
				return
			}
			out.MustAddRate(src, dst, t.Rate)
		})
		if merr != nil {
			return nil, merr
		}
		b.EachRateFrom(p.y, func(t MTransition) {
			if merr != nil {
				return
			}
			dst, err := intern(pair{p.x, t.Dst})
			if err != nil {
				merr = err
				return
			}
			out.MustAddRate(src, dst, t.Rate)
		})
		if merr != nil {
			return nil, merr
		}
	}
	return out, nil
}

func gateSet(l *lts.LTS) map[string]bool {
	set := map[string]bool{}
	l.EachTransition(func(t lts.Transition) {
		lab := l.LabelName(t.Label)
		if lab != lts.Tau {
			set[lts.Gate(lab)] = true
		}
	})
	return set
}

// SortedGates returns the sorted visible gates of the IMC.
func (m *IMC) SortedGates() []string {
	set := gateSet(m.Inter)
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
