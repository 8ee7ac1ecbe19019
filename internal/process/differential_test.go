package process_test

import (
	"context"
	"errors"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"multival/internal/chp"
	"multival/internal/engine"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/lotos"
	"multival/internal/lts"
	"multival/internal/process"
)

// routerStates is the state count of the 3-port handshake router.
const routerStates = 65329

func routerSystem(t testing.TB, ports int, inputs []int, handshake bool) *process.System {
	t.Helper()
	procs, err := faust.RouterProcesses(faust.RouterConfig{Ports: ports, InputsActive: inputs})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := chp.Translate(procs, chp.Options{HandshakeExpand: handshake})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// checkReference generates sys with GenerateCtx and with the string-keyed
// reference generator and fails unless the LTSs are identical: state
// count, transition sequence (src, label, dst in order) and label table.
func checkReference(t *testing.T, sys *process.System, opts process.GenOptions) *lts.LTS {
	t.Helper()
	ctx := context.Background()
	got, gotErr := sys.GenerateCtx(ctx, opts)
	want, wantErr := process.GenerateReference(ctx, sys, opts)
	if d := process.DiffGenerated(got, gotErr, want, wantErr); d != "" {
		t.Fatalf("%s: differs from the reference generator: %s", sys.Name, d)
	}
	if gotErr != nil {
		t.Fatalf("%s: %v", sys.Name, gotErr)
	}
	return got
}

func TestDifferentialRouters(t *testing.T) {
	for _, c := range []struct {
		name      string
		ports     int
		inputs    []int
		handshake bool
		states    int
	}{
		{"p2", 2, nil, false, 165},
		{"p3", 3, nil, false, 6124},
		{"p3-in01", 3, []int{0, 1}, false, 964},
		{"p2-hs", 2, nil, true, 0},
		{"p3-hs", 3, nil, true, routerStates},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.states == routerStates && (testing.Short() || raceEnabled) {
				t.Skip("reference generation of the 65k-state router is slow")
			}
			l := checkReference(t, routerSystem(t, c.ports, c.inputs, c.handshake), process.GenOptions{MaxStates: 1 << 20})
			if c.states != 0 && l.NumStates() != c.states {
				t.Fatalf("%d states, want %d", l.NumStates(), c.states)
			}
		})
	}
}

func TestDifferentialForks(t *testing.T) {
	for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
		sys, err := faust.ForkSystem(2, v)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, sys, process.GenOptions{})
	}
}

func TestDifferentialMPIFunctional(t *testing.T) {
	for values := 1; values <= 3; values++ {
		sys, err := fame.MPIFunctionalSystem(values)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, sys, process.GenOptions{MaxStates: 1 << 18})
	}
}

// TestDifferentialLOTOS covers a parsed specification with a parallel
// pipeline nested under '>> accept' in a recursive process: both stages
// exit with agreeing values, and the whole run sits under a disabling
// interrupt, a rename and a hide.
func TestDifferentialLOTOS(t *testing.T) {
	sys, err := lotos.Parse(`
	specification pipeline
	process Stage(n) :=
	    inp ?x:0..2 ; mid !((x + n) mod 3) ; exit((x + n) mod 3)
	endproc
	process Sink :=
	    mid ?y:0..2 ; outp !y ; exit(y)
	endproc
	process Run(k) :=
	    [k > 0] -> ((Stage(k) |[mid]| Sink) >> accept v in done !v ; Run(k - 1))
	 [] [k == 0] -> exit
	endproc
	behaviour
	    hide mid in (rename inp -> put, outp -> get in (Run(2) [> reset ; stop))
	`)
	if err != nil {
		t.Fatal(err)
	}
	l := checkReference(t, sys, process.GenOptions{})
	for _, label := range []string{"put !2", "get !0", "done !1", "reset", "exit", lts.Tau} {
		if l.LookupLabel(label) < 0 {
			t.Errorf("pipeline: no %q in %v", label, l.Labels())
		}
	}
}

// TestGenerateCtxCanceledFromProgress cancels the context from the first
// progress report; generation must stop at the next check with an error
// wrapping context.Canceled, well short of the full router.
func TestGenerateCtxCanceledFromProgress(t *testing.T) {
	sys := routerSystem(t, 3, nil, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reports []engine.Progress
	_, err := sys.GenerateCtx(ctx, process.GenOptions{Progress: func(p engine.Progress) {
		reports = append(reports, p)
		if len(reports) == 1 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := regexp.MustCompile(`canceled at (\d+) states`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error does not report the states reached: %v", err)
	}
	if n, _ := strconv.Atoi(m[1]); n >= routerStates {
		t.Fatalf("canceled at %d states, want fewer than %d", n, routerStates)
	}
	if len(reports) != 1 || reports[0].Stage != "generate" {
		t.Fatalf("reports = %+v, want one generate report", reports)
	}
}

// TestGenerateProgressMonotone: a full run reports stage "generate" every
// 1024 worklist states with non-decreasing counts below the final size.
func TestGenerateProgressMonotone(t *testing.T) {
	sys := routerSystem(t, 3, nil, true)
	var reports []engine.Progress
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{Progress: func(p engine.Progress) {
		reports = append(reports, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (routerStates + 1023) / 1024; len(reports) != want {
		t.Fatalf("%d progress reports, want %d", len(reports), want)
	}
	prev := 0
	for i, p := range reports {
		if p.Stage != "generate" || p.States < prev || p.States > l.NumStates() {
			t.Fatalf("report %d = %+v after %d states", i, p, prev)
		}
		prev = p.States
	}
}

// TestGenerateConcurrent runs concurrent GenerateCtx calls on one shared
// System: each call owns its term store, so every result must equal the
// sequential one.
func TestGenerateConcurrent(t *testing.T) {
	sys := routerSystem(t, 3, nil, false)
	opts := process.GenOptions{MaxStates: 1 << 20}
	want, err := sys.GenerateCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 4
	diffs := make([]string, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := sys.GenerateCtx(context.Background(), opts)
			diffs[i] = process.DiffGenerated(got, err, want, nil)
		}(i)
	}
	wg.Wait()
	for i, d := range diffs {
		if d != "" {
			t.Errorf("call %d: %s", i, d)
		}
	}
}
