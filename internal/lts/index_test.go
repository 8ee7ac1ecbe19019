package lts

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// edgeMultiset canonically encodes all transitions of an LTS.
func edgeMultiset(l *LTS) [][3]int {
	var out [][3]int
	l.EachTransition(func(t Transition) {
		out = append(out, [3]int{int(t.Src), t.Label, int(t.Dst)})
	})
	sortEdges(out)
	return out
}

func sortEdges(es [][3]int) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

func sameEdges(a, b [][3]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickIndexRowsSortedAndComplete: every Out and In row is sorted by
// (label, endpoint), and each direction holds exactly the edge multiset.
func TestQuickIndexRowsSortedAndComplete(t *testing.T) {
	sorted := func(labs, ends []int32) bool {
		for i := 1; i < len(labs); i++ {
			if labs[i] < labs[i-1] || (labs[i] == labs[i-1] && ends[i] < ends[i-1]) {
				return false
			}
		}
		return true
	}
	prop := func(r randLTS) bool {
		var outs, ins [][3]int
		for s := 0; s < r.L.NumStates(); s++ {
			labs, dsts := r.L.Out(State(s))
			if !sorted(labs, dsts) || r.L.OutDegree(State(s)) != len(labs) {
				return false
			}
			for i := range labs {
				outs = append(outs, [3]int{s, int(labs[i]), int(dsts[i])})
			}
			ilabs, isrcs := r.L.In(State(s))
			if !sorted(ilabs, isrcs) {
				return false
			}
			for i := range ilabs {
				ins = append(ins, [3]int{int(isrcs[i]), int(ilabs[i]), s})
			}
		}
		sortEdges(ins)
		want := edgeMultiset(r.L)
		return sameEdges(outs, want) && sameEdges(ins, want)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickSuccMatchesEdges: Succ and Successors agree with a scan of the
// edge arrays.
func TestQuickSuccMatchesEdges(t *testing.T) {
	prop := func(r randLTS) bool {
		for s := 0; s < r.L.NumStates(); s++ {
			for id := 0; id < r.L.NumLabels(); id++ {
				var want []int32
				r.L.EachTransition(func(t Transition) {
					if t.Src == State(s) && t.Label == id {
						want = append(want, int32(t.Dst))
					}
				})
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := r.L.Succ(State(s), id)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
				distinct := r.L.Successors(State(s), id)
				for i, d := range distinct {
					if (i > 0 && d <= distinct[i-1]) || !r.L.HasTransition(State(s), id, d) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := quickCfg()
	cfg.MaxCount = 25
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestMutationDropsIndex: rows read before a mutation stay as they were,
// and the next read sees the mutation.
func TestMutationDropsIndex(t *testing.T) {
	l := New("grow")
	l.AddStates(2)
	l.AddTransition(0, "a", 1)
	labs, _ := l.Out(0)
	l.AddTransition(0, "b", 0)
	if len(labs) != 1 {
		t.Fatalf("published row changed under a mutation: %v", labs)
	}
	if got := l.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree after AddTransition = %d, want 2", got)
	}
	if _, srcs := l.In(0); len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("In(0) after AddTransition = %v", srcs)
	}
	s := l.AddState()
	l.AddTransition(s, "a", 0)
	if _, srcs := l.In(0); len(srcs) != 2 {
		t.Fatalf("In(0) after AddState = %v", srcs)
	}
	if l.OutDegree(s) != 1 || !l.IsDeadlock(1) {
		t.Fatal("rows of the grown state are wrong")
	}
}

// TestConcurrentFirstReads: eight goroutines take the first Out, In and
// Hash reads of a freshly built LTS; run under -race, it checks that the
// lazily built index is published safely and built consistently.
func TestConcurrentFirstReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		l := Random(rng, RandomConfig{States: 500, Labels: 4, Density: 3, TauProb: 0.2, Connect: true})
		want := l.Copy()
		wantHash := want.Hash()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < l.NumStates(); k++ {
					s := State((k + 61*g) % l.NumStates())
					labs, dsts := l.Out(s)
					wlabs, wdsts := want.Out(s)
					ilabs, isrcs := l.In(s)
					wilabs, wisrcs := want.In(s)
					if !slices.Equal(labs, wlabs) || !slices.Equal(dsts, wdsts) ||
						!slices.Equal(ilabs, wilabs) || !slices.Equal(isrcs, wisrcs) {
						errs <- fmt.Sprintf("goroutine %d: rows of state %d differ from the copy's", g, s)
						return
					}
				}
				if h := l.Hash(); h != wantHash {
					errs <- "hash " + h + " != " + wantHash
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

func BenchmarkIndex100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := Random(rng, RandomConfig{States: 100_000, Labels: 8, Density: 4, Connect: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.dropIndex()
		l.Out(0)
		l.In(0)
	}
}
