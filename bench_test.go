package multival

// One benchmark per experiment E1-E9 of the reproduction, plus engine
// benchmarks (generation, composition, minimization, partition
// refinement) and solver benchmarks. Each experiment benchmark runs the
// same flow as cmd/experiments, so `go test -bench=.` regenerates every
// reported quantity; printed tables come from `go run ./cmd/experiments`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/compose"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/imc"
	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/mcl"
	"multival/internal/phasetype"
	"multival/internal/process"
	"multival/internal/xstream"
)

// BenchmarkE1XStreamIssues: detect both injected xSTream protocol bugs.
func BenchmarkE1XStreamIssues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leak, err := xstream.FunctionalModel(xstream.Config{
			Capacity: 3, Values: 2, Variant: xstream.CreditLeak, WithFlush: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if mcl.MustCheck(context.Background(), leak, mcl.DeadlockFree()) {
			b.Fatal("credit leak not detected")
		}
		opt, err := xstream.FunctionalModel(xstream.Config{
			Capacity: 3, Values: 2, Variant: xstream.OptimisticPush,
		})
		if err != nil {
			b.Fatal(err)
		}
		if mcl.MustCheck(context.Background(), opt, mcl.NeverEnabled(mcl.Action("overflow"))) {
			b.Fatal("overflow not detected")
		}
	}
}

// BenchmarkE2FaustRouter: generate and verify the 3-port router.
func BenchmarkE2FaustRouter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := faust.RouterLTS(context.Background(), faust.RouterConfig{Ports: 3}, chp.Options{}, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if !mcl.MustCheck(context.Background(), l, mcl.DeadlockFree()) {
			b.Fatal("router deadlocked")
		}
		for _, bad := range faust.MisroutedLabels(3) {
			if !mcl.MustCheck(context.Background(), l, mcl.NeverEnabled(mcl.Action(bad))) {
				b.Fatal("misrouting")
			}
		}
	}
}

// BenchmarkE3IsochronousFork: check all three fork variants against the
// specification.
func BenchmarkE3IsochronousFork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := faust.ForkSpec(2)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
			impl, err := faust.ForkImpl(2, v)
			if err != nil {
				b.Fatal(err)
			}
			eq := equivalent(spec, impl, bisim.Branching)
			if eq != (v != faust.ForkUnsafe) {
				b.Fatalf("%v: unexpected verdict %v", v, eq)
			}
		}
	}
}

// BenchmarkE4MPILatency: the full 12-row FAME2 prediction sweep.
func BenchmarkE4MPILatency(b *testing.B) {
	base := fame.Workload{Nodes: 16, A: 0, B: 5, Chunks: 8, Scratch: 4, Rounds: 3}
	tm := fame.Timing{TBase: 50, THop: 20, ErlangK: 3}
	for i := 0; i < b.N; i++ {
		rows, err := fame.Sweep(base, nil, nil, nil, tm)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkE5XStreamPerf: occupancy/throughput/latency across the load
// sweep.
func BenchmarkE5XStreamPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, capacity := range []int{4, 8, 16} {
			for _, rho := range []float64{0.3, 0.6, 0.9, 1.2, 1.5} {
				if _, err := xstream.Evaluate(context.Background(), xstream.PerfConfig{
					Capacity: capacity, ArrivalRate: rho * 2, ServiceRate: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE6FixedDelay: the Erlang space-accuracy sweep.
func BenchmarkE6FixedDelay(b *testing.B) {
	work := lts.New("work")
	work.AddStates(3)
	work.AddTransition(0, "work_s", 1)
	work.AddTransition(1, "work_e", 2)
	work.AddTransition(2, "done", 0)
	work.SetInitial(0)
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 4, 16, 64} {
			dist, err := phasetype.FitFixedDelay(0.5, k)
			if err != nil {
				b.Fatal(err)
			}
			m, err := imc.Decorate(work, []imc.Delay{{Start: "work_s", End: "work_e", Dist: dist}}, 0)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.ToCTMCCtx(context.Background(), nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.SteadyState(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE7Nondeterminism: scheduler enumeration for throughput bounds.
func BenchmarkE7Nondeterminism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := imc.New("nd-server")
		idle := m.AddState()
		choice := m.AddState()
		fast := m.AddState()
		slow := m.AddState()
		fdone := m.AddState()
		sdone := m.AddState()
		m.MustAddRate(idle, choice, 1)
		m.AddInteractive(choice, lts.Tau, fast)
		m.AddInteractive(choice, lts.Tau, slow)
		m.MustAddRate(fast, fdone, 4)
		m.MustAddRate(slow, sdone, 0.5)
		m.AddInteractive(fdone, "served", idle)
		m.AddInteractive(sdone, "served", idle)
		m.Inter.SetInitial(idle)
		lo, hi, err := m.ThroughputBounds("served", markov.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !(lo < hi) {
			b.Fatal("no spread")
		}
	}
}

// BenchmarkE8Compositional: smart reduction vs monolithic on a 5-stage
// pipeline.
func BenchmarkE8Compositional(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := xstream.PipelineNetwork(5, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		_, monoRep, err := monolithic(net, bisim.Branching)
		if err != nil {
			b.Fatal(err)
		}
		_, smartRep, err := smartReduce(net, bisim.Branching)
		if err != nil {
			b.Fatal(err)
		}
		if smartRep.PeakStates >= monoRep.PeakStates {
			b.Fatal("no compositional gain")
		}
	}
}

// BenchmarkE9LumpingAblation: compose-then-minimize vs minimize-during.
func BenchmarkE9LumpingAblation(b *testing.B) {
	gate := func(i int) string { return fmt.Sprintf("h%d", i) }
	arrival := func() *imc.IMC {
		m := imc.New("arrival")
		a0, a1 := m.AddState(), m.AddState()
		m.MustAddRate(a0, a1, 1)
		m.AddInteractive(a1, gate(1), a0)
		m.Inter.SetInitial(a0)
		return m
	}
	stage := func(i int) *imc.IMC {
		m := imc.New("stage")
		empty, busy, ready := m.AddState(), m.AddState(), m.AddState()
		m.AddInteractive(empty, gate(i), busy)
		m.MustAddRate(busy, ready, 2)
		m.AddInteractive(ready, gate(i+1), empty)
		m.Inter.SetInitial(empty)
		return m
	}
	for i := 0; i < b.N; i++ {
		const n = 4
		cur := arrival()
		for s := 1; s <= n; s++ {
			next, err := imc.Compose(cur, stage(s), []string{gate(s)}, 0)
			if err != nil {
				b.Fatal(err)
			}
			if cur, err = next.Hide(gate(s)).Minimize(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		res, err := cur.MaximalProgress().ToCTMCCtx(context.Background(), imc.UniformScheduler{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro-benchmarks of the core machinery ----

func BenchmarkMinimizeBranching(b *testing.B) {
	net, err := xstream.PipelineNetwork(4, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	prod, err := net.GenerateOpt(context.Background(), compose.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minimize(prod, bisim.Branching)
	}
}

// BenchmarkModelCheckRouter checks the serve-level presets on the
// 65,329-state handshake router (crossbar wires hidden, 392,361
// transitions), one sub-benchmark per preset: deadlock freedom, a never
// query, reachability, inevitability and response, the last with an
// inevitability nested in an invariant.
func BenchmarkModelCheckRouter(b *testing.B) {
	l, err := faust.RouterLTS(context.Background(), faust.RouterConfig{Ports: 3}, chp.Options{HandshakeExpand: true}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	if l.NumStates() != 65329 {
		b.Fatalf("router: %d states, want 65329", l.NumStates())
	}
	for _, q := range []struct{ name, query string }{
		{"deadlock", "deadlock"},
		{"never", "never:out0_req !1"},
		{"reachable", "reachable:out2_req !2"},
		{"inevitable", "inevitable:in1_ack"},
		{"response", "response:in0_req !2->out2_req !2"},
	} {
		f, err := mcl.ParseQuery(q.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcl.Verify(context.Background(), l, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- solver benchmarks (the CSR sweep kernels, PR 3) ----

// largeChain builds an irreducible n-state chain (ring backbone plus two
// random chords per state, ~300k transitions at n=100k). The chords keep
// the mixing time small, so the benchmark measures kernel sweep
// throughput rather than the chain's spectral gap.
func largeChain(n int) *markov.CTMC {
	rng := rand.New(rand.NewSource(int64(n)))
	c := markov.NewCTMC(n)
	for i := 0; i < n; i++ {
		c.MustAdd(i, (i+1)%n, 0.5+rng.Float64()*2, "")
		for e := 0; e < 2; e++ {
			if j := rng.Intn(n); j != i {
				c.MustAdd(i, j, 0.2+rng.Float64(), "")
			}
		}
	}
	return c
}

// BenchmarkSteadyStateLargeChain solves a 100k-state chain. The
// stationary solve is the Gauss–Seidel sweep — it converges in ~16
// sweeps on this well-mixed chain, which no Krylov iteration count
// beats (a forced deflated BiCGSTAB took ~47 iterations here) — with
// the setup fast paths: two BFS passes replace the Tarjan decomposition
// and the whole-chain BSCC skips the identity submatrix compaction.
func BenchmarkSteadyStateLargeChain(b *testing.B) {
	c := largeChain(100_000)
	c.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(markov.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateLargeChainClosures solves the same chain with the
// pre-PR kernel — per-state closure dispatch (EachFrom) into an edge-list
// adjacency built through maps — making the CSR kernel's speedup
// directly measurable against BenchmarkSteadyStateLargeChain.
func BenchmarkSteadyStateLargeChainClosures(b *testing.B) {
	c := largeChain(100_000)
	c.Freeze()
	n := c.NumStates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The old stationaryWithin: incoming edge lists gathered per
		// destination via the tag-table closure, then swept.
		type inEdge struct {
			from int
			rate float64
		}
		indexOf := make(map[int]int, n)
		for s := 0; s < n; s++ {
			indexOf[s] = s
		}
		in := make([][]inEdge, n)
		exit := make([]float64, n)
		for s := 0; s < n; s++ {
			exit[s] = c.ExitRate(s)
			c.EachFrom(s, func(t markov.Transition) {
				j, ok := indexOf[t.Dst]
				if !ok {
					return
				}
				in[j] = append(in[j], inEdge{s, t.Rate})
			})
		}
		pi := make([]float64, n)
		for j := range pi {
			pi[j] = 1 / float64(n)
		}
		for iter := 0; iter < 1_000_000; iter++ {
			maxDelta := 0.0
			for j := 0; j < n; j++ {
				sum := 0.0
				for _, e := range in[j] {
					sum += pi[e.from] * e.rate
				}
				next := sum / exit[j]
				if d := next - pi[j]; d > maxDelta {
					maxDelta = d
				} else if -d > maxDelta {
					maxDelta = -d
				}
				pi[j] = next
			}
			total := 0.0
			for _, p := range pi {
				total += p
			}
			for j := range pi {
				pi[j] /= total
			}
			if maxDelta < 1e-12 {
				break
			}
		}
	}
}

// BenchmarkAbsorptionMultiBSCC weights eight BSCC rings by absorption
// probability from a 50k-state transient mesh: the multi-BSCC path
// (absorption weights + per-BSCC stationary solves). The solver runs
// ONE adjoint (expected-visits) system by SCC-topological blocks —
// BiCGSTAB on the large mesh block — instead of one global hitting
// system per BSCC (~7x on this fixture).
func BenchmarkAbsorptionMultiBSCC(b *testing.B) {
	const transient, bsccs, ring = 50_000, 8, 64
	c := markov.NewCTMC(transient + bsccs*ring)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < transient; i++ {
		if i < transient-1 {
			c.MustAdd(i, i+1, 1+rng.Float64(), "")
		}
		if j := rng.Intn(transient); j != i {
			c.MustAdd(i, j, rng.Float64(), "")
		}
		// Every eighth state can absorb directly, keeping the expected
		// walk length (and so the sweep count) small: the benchmark
		// measures kernel throughput, not an adversarial mixing time.
		if i%8 == 0 {
			c.MustAdd(i, transient+rng.Intn(bsccs*ring), 0.5+rng.Float64(), "")
		}
	}
	c.MustAdd(transient-1, transient, 0.1+rng.Float64(), "")
	for k := 0; k < bsccs; k++ {
		base := transient + k*ring
		for s := 0; s < ring; s++ {
			c.MustAdd(base+s, base+(s+1)%ring, 1+rng.Float64(), "")
		}
	}
	c.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi, err := c.SteadyState(markov.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pi[transient] == 0 {
			b.Fatal("no mass absorbed")
		}
	}
}

// BenchmarkTransientLargeChain runs uniformization on a 100k-state chain:
// one sequential CSR scatter product (AddApplyT) per Poisson step.
func BenchmarkTransientLargeChain(b *testing.B) {
	c := largeChain(100_000)
	c.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(3, markov.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// boundsRing is the policy-iteration workload: a tangible ring where
// every hop passes a nondeterministic vanishing state choosing between a
// direct route and a slower detour, only some routes crossing "work".
func boundsRing(n int) *imc.IMC {
	rng := rand.New(rand.NewSource(42))
	m := imc.New("bounds-ring")
	ring := make([]lts.State, n)
	for i := range ring {
		ring[i] = m.AddState()
	}
	for i := range ring {
		next := ring[(i+1)%n]
		v := m.AddState()
		m.MustAddRate(ring[i], v, 0.5+2*rng.Float64())
		label := "work"
		if i%2 == 0 {
			label = lts.Tau
		}
		m.AddInteractive(v, label, next)
		mid := m.AddState()
		m.AddInteractive(v, lts.Tau, mid)
		m.MustAddRate(mid, next, 0.3+3*rng.Float64())
	}
	m.Inter.SetInitial(ring[0])
	return m
}

// BenchmarkThroughputBoundsPolicy bounds the throughput of a model with
// 24 nondeterministic states — 2^24 schedulers, which the odometer
// enumeration rejects at its default combination limit — by policy
// iteration.
func BenchmarkThroughputBoundsPolicy(b *testing.B) {
	m := boundsRing(24)
	if _, _, err := m.ThroughputBoundsEnum(context.Background(), "work", 0); err == nil {
		b.Fatal("odometer enumeration accepted 2^24 scheduler combinations")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi, err := m.ThroughputBounds("work", markov.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !(lo <= hi) {
			b.Fatalf("degenerate bounds [%g, %g]", lo, hi)
		}
	}
}

// ---- benchmarks of the shared CSR state-space engine ----

// composeMinimizeInputs builds a random LTS of the given size plus a small
// random monitor synchronizing on three of its gates, so the product stays
// within a constant factor of the input size (the 10k–100k range the
// refactor targets) while still exercising synchronized generation.
func composeMinimizeInputs(states int) (*lts.LTS, *lts.LTS, []string) {
	rng := rand.New(rand.NewSource(int64(states)))
	main := lts.Random(rng, lts.RandomConfig{
		States: states, Labels: 6, Density: 3, TauProb: 0.2, Connect: true,
	})
	monitor := lts.Random(rng, lts.RandomConfig{
		States: 5, Labels: 3, Density: 3, Connect: true,
	})
	return main, monitor, []string{"a", "b", "c"}
}

func benchComposeThenMinimize(b *testing.B, states int) {
	main, monitor, sync := composeMinimizeInputs(states)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := pair(main, monitor, sync, 1<<22)
		if err != nil {
			b.Fatal(err)
		}
		q, _ := minimize(prod, bisim.Branching)
		if q.NumStates() == 0 {
			b.Fatal("empty quotient")
		}
	}
}

func BenchmarkComposeMinimize10k(b *testing.B)  { benchComposeThenMinimize(b, 10_000) }
func BenchmarkComposeMinimize40k(b *testing.B)  { benchComposeThenMinimize(b, 40_000) }
func BenchmarkComposeMinimize100k(b *testing.B) { benchComposeThenMinimize(b, 100_000) }

// composeBenchNetwork is the sharded-generation acceptance workload: a
// random 20k-state component times a small synchronizing monitor, whose
// product reaches ~96k states / ~286k transitions. Both benchmarks below
// generate the identical product (the sharded generator renumbers to the
// sequential order), so their ratio is the sharding speedup.
func composeBenchNetwork() *compose.Network {
	rng := rand.New(rand.NewSource(20000))
	main := lts.Random(rng, lts.RandomConfig{
		States: 20_000, Labels: 6, Density: 3, TauProb: 0.2, Connect: true,
	})
	monitor := lts.Random(rng, lts.RandomConfig{States: 5, Labels: 3, Density: 3, Connect: true})
	return &compose.Network{
		Components: []*lts.LTS{main, monitor},
		Sync:       []string{"a", "b", "c"},
		MaxStates:  1 << 22,
	}
}

// BenchmarkComposeSeq100k generates the ~100k-state product with the
// sequential reference generator (one worklist, one intern map).
func BenchmarkComposeSeq100k(b *testing.B) {
	net := composeBenchNetwork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := net.GenerateOpt(context.Background(), compose.GenOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if p.NumStates() == 0 {
			b.Fatal("empty product")
		}
	}
}

// BenchmarkComposeParallel100k generates the identical product with four
// hash-partitioned shards; the acceptance bar of the sharded generator is
// >= 1.5x over BenchmarkComposeSeq100k.
func BenchmarkComposeParallel100k(b *testing.B) {
	net := composeBenchNetwork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := net.GenerateOpt(context.Background(), compose.GenOptions{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if p.NumStates() == 0 {
			b.Fatal("empty product")
		}
	}
}

// partitionInput is the ≥50k-state workload of the acceptance criterion:
// the parallel engine must be no slower than the sequential reference.
func partitionInput() *lts.LTS {
	rng := rand.New(rand.NewSource(20080310))
	return lts.Random(rng, lts.RandomConfig{
		States: 50_000, Labels: 6, Density: 3, TauProb: 0.25, Connect: true,
	})
}

func BenchmarkPartition50kStrongSeq(b *testing.B) {
	l := partitionInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisim.PartitionSeq(l, bisim.Strong)
	}
}

func BenchmarkPartition50kStrongParallel(b *testing.B) {
	l := partitionInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Through the public entry point. The out index is built on the
		// first iteration and then cached on l, as on any LTS that is
		// minimized more than once.
		partition(l, bisim.Strong)
	}
}

func BenchmarkPartition50kBranchingSeq(b *testing.B) {
	l := partitionInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisim.PartitionSeq(l, bisim.Branching)
	}
}

func BenchmarkPartition50kBranchingParallel(b *testing.B) {
	l := partitionInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition(l, bisim.Branching)
	}
}

// BenchmarkStateSpaceGeneration: translate the 3-port handshake-expanded
// CHP router and generate its 65,329-state LTS through the process
// calculus (the state-space generation step of the functional flow).
func BenchmarkStateSpaceGeneration(b *testing.B) {
	procs, err := faust.RouterProcesses(faust.RouterConfig{Ports: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := chp.Translate(procs, chp.Options{HandshakeExpand: true})
		if err != nil {
			b.Fatal(err)
		}
		l, err := sys.GenerateCtx(context.Background(), process.GenOptions{MaxStates: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if l.NumStates() != 65329 {
			b.Fatalf("router: %d states, want 65329", l.NumStates())
		}
	}
}
