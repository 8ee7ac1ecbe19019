package compose

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"multival/internal/engine"
	"multival/internal/lts"
)

// equalLTS reports whether two LTSs are identical — same state numbering,
// same transition insertion order, same label table — not merely
// isomorphic or bisimilar. This is the determinism contract of the
// sharded generator: its renumbering pass must reproduce the sequential
// product exactly so content-addressed artifact keys stay byte-stable.
func equalLTS(a, b *lts.LTS) error {
	if a.NumStates() != b.NumStates() {
		return fmt.Errorf("states: %d vs %d", a.NumStates(), b.NumStates())
	}
	if a.NumTransitions() != b.NumTransitions() {
		return fmt.Errorf("transitions: %d vs %d", a.NumTransitions(), b.NumTransitions())
	}
	if a.Initial() != b.Initial() {
		return fmt.Errorf("initial: %d vs %d", a.Initial(), b.Initial())
	}
	al, bl := a.Labels(), b.Labels()
	if len(al) != len(bl) {
		return fmt.Errorf("labels: %d vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			return fmt.Errorf("label %d: %q vs %q", i, al[i], bl[i])
		}
	}
	for i := 0; i < a.NumTransitions(); i++ {
		ta, tb := a.Transition(i), b.Transition(i)
		if ta != tb {
			return fmt.Errorf("transition %d: %v vs %v", i, ta, tb)
		}
	}
	return nil
}

// TestQuickShardedEqualsSequential is the differential quick-check of the
// tentpole: across worker counts, the sharded product must be identical
// (not just bisimilar) to the sequential reference — and when one path
// errors, both must.
func TestQuickShardedEqualsSequential(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prop := func(a, b, c randComponent) bool {
				net := &Network{
					Components: []*lts.LTS{a.L, b.L, c.L},
					Sync:       []string{"g", "h"},
					Hide:       []string{"h"},
					MaxStates:  1 << 14,
				}
				seq, err1 := net.GenerateSeq(context.Background(), nil)
				par, err2 := net.GenerateOpt(context.Background(), GenOptions{Workers: workers})
				if err1 != nil || err2 != nil {
					return err1 != nil && err2 != nil
				}
				if err := equalLTS(seq, par); err != nil {
					t.Logf("workers=%d: %v", workers, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, qcfg()); err != nil {
				t.Error(err)
			}
		})
	}
}

// deepNetwork is a product with a long BFS diameter (two loosely coupled
// rings), forcing many cross-shard exchange rounds.
func deepNetwork(n int) *Network {
	ring := func(name string, n int, lab string) *lts.LTS {
		l := lts.New(name)
		l.AddStates(n)
		for s := 0; s < n; s++ {
			l.AddTransition(lts.State(s), fmt.Sprintf("%s%d", lab, s%7), lts.State((s+1)%n))
		}
		l.SetInitial(0)
		return l
	}
	return &Network{
		Components: []*lts.LTS{ring("a", n, "s"), ring("b", n+1, "t")},
		MaxStates:  1 << 22,
	}
}

// TestShardedDeepProductIdenticalAndHashStable drives a multi-round
// sharded generation (deep diameter, thousands of states) and checks both
// exact equality and LTS.Hash stability — the digest the serve layer
// uses as artifact key.
func TestShardedDeepProductIdenticalAndHashStable(t *testing.T) {
	net := deepNetwork(60) // 60*61 = 3660 product states, diameter ~120
	seq, err := net.GenerateSeq(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := net.GenerateOpt(context.Background(), GenOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := equalLTS(seq, par); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sh, ph := seq.Hash(), par.Hash(); sh != ph {
			t.Fatalf("workers=%d: hash %s != %s", workers, ph, sh)
		}
	}
}

// TestShardedRandomProductIdentical covers a denser, branchier workload
// (random LTS times a small synchronizing monitor) than the quick-check
// components reach.
func TestShardedRandomProductIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	main := lts.Random(rng, lts.RandomConfig{
		States: 5000, Labels: 6, Density: 3, TauProb: 0.2, Connect: true,
	})
	monitor := lts.Random(rng, lts.RandomConfig{States: 5, Labels: 3, Density: 3, Connect: true})
	net := &Network{
		Components: []*lts.LTS{main, monitor},
		Sync:       []string{"a", "b", "c"},
		MaxStates:  1 << 20,
	}
	seq, err := net.GenerateSeq(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := net.GenerateOpt(context.Background(), GenOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalLTS(seq, par); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStateBoundAbort aborts the sharded generation mid-shard on
// the state bound; the error must classify as engine.ErrStateBound, like
// the sequential path's.
func TestShardedStateBoundAbort(t *testing.T) {
	net := deepNetwork(60)
	net.MaxStates = 500
	for _, workers := range []int{2, 4} {
		_, err := net.GenerateOpt(context.Background(), GenOptions{Workers: workers})
		if !errors.Is(err, engine.ErrStateBound) {
			t.Fatalf("workers=%d: got %v, want ErrStateBound", workers, err)
		}
	}
	if _, err := net.GenerateSeq(context.Background(), nil); !errors.Is(err, engine.ErrStateBound) {
		t.Fatalf("sequential: got %v, want ErrStateBound", err)
	}
}

// TestShardedCancelMidRound cancels the context from the progress hook
// after the first exchange round; the generation must abort with the
// context error instead of completing.
func TestShardedCancelMidRound(t *testing.T) {
	net := deepNetwork(120) // enough rounds that cancellation lands mid-generation
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reports int32
	progress := func(p engine.Progress) {
		if p.Stage == "compose" && atomic.AddInt32(&reports, 1) == 1 {
			cancel()
		}
	}
	_, err := net.GenerateOpt(ctx, GenOptions{Workers: 4, Progress: progress})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestShardedUnpackableFallsBackToSequential composes enough large
// components that their tuples exceed 64 packed bits; GenerateOpt must
// fall back to the sequential generator and still return the identical
// product (the components run in lockstep, so the product stays small).
func TestShardedUnpackableFallsBackToSequential(t *testing.T) {
	ring := func(n int) *lts.LTS {
		l := lts.New("ring")
		l.AddStates(n)
		for s := 0; s < n; s++ {
			l.AddTransition(lts.State(s), fmt.Sprintf("s%d", s%7), lts.State((s+1)%n))
		}
		l.SetInitial(0)
		return l
	}
	comps := make([]*lts.LTS, 8) // 8 x 9 bits = 72 bits: unpackable
	for i := range comps {
		comps[i] = ring(512)
	}
	net := &Network{
		Components: comps,
		Sync:       []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6"},
		MaxStates:  1 << 16,
	}
	seq, err := net.GenerateSeq(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := net.GenerateOpt(context.Background(), GenOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalLTS(seq, par); err != nil {
		t.Fatal(err)
	}
	if seq.NumStates() != 512 {
		t.Fatalf("lockstep product has %d states, want 512", seq.NumStates())
	}
}

// TestGenerateFinalProgressExact checks the completion report of both
// generators: the last "compose" progress snapshot must carry the exact
// state and transition counts of the finished product, not the last
// check-interval undercount.
func TestGenerateFinalProgressExact(t *testing.T) {
	net := deepNetwork(60)
	for _, workers := range []int{1, 4} {
		var last engine.Progress
		progress := func(p engine.Progress) {
			if p.Stage == "compose" {
				last = p
			}
		}
		p, err := net.GenerateOpt(context.Background(), GenOptions{Workers: workers, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		if last.States != p.NumStates() || last.Transitions != p.NumTransitions() || !last.Done {
			t.Fatalf("workers=%d: final report %+v, product has %d states/%d transitions",
				workers, last, p.NumStates(), p.NumTransitions())
		}
	}

	// A product that deadlocks immediately (sync gates nobody can take
	// together) still gets a Done report — with zero transitions.
	a := lts.New("a")
	a.AddStates(1)
	a.AddTransition(0, "g !0", 0)
	a.SetInitial(0)
	b := lts.New("b")
	b.AddStates(1)
	b.AddTransition(0, "g !1", 0)
	b.SetInitial(0)
	dead := &Network{Components: []*lts.LTS{a, b}, Sync: []string{"g"}, MaxStates: 16}
	for _, workers := range []int{1, 4} {
		var last engine.Progress
		progress := func(p engine.Progress) {
			if p.Stage == "compose" {
				last = p
			}
		}
		p, err := dead.GenerateOpt(context.Background(), GenOptions{Workers: workers, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		if p.NumTransitions() != 0 || !last.Done || last.States != 1 || last.Transitions != 0 {
			t.Fatalf("workers=%d: deadlocked product final report %+v (product %d/%d)",
				workers, last, p.NumStates(), p.NumTransitions())
		}
	}
}
