// Package cli is the shared toolkit of the multival command-line tools:
// one implementation of .aut load/store, gate-set and rate flag parsing,
// relation parsing, and the -workers/-timeout/-progress option surface,
// so every tool drives the same engine-first Pipeline API instead of
// re-implementing the plumbing.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"multival"
	"multival/internal/aut"
	"multival/internal/lts"
)

// Common carries the option surface shared by every tool. Build one with
// New before flag.Parse.
type Common struct {
	// Tool is the program name used in error and progress messages.
	Tool string
	// Workers is the engine worker count (-workers).
	Workers int
	// Timeout bounds the whole run (-timeout); zero means no limit.
	Timeout time.Duration
	// Progress enables progress reporting on stderr (-progress).
	Progress bool
	// MaxStates bounds state-space generation (-max-states, when
	// registered with MaxStatesFlag).
	MaxStates int
}

// New registers the shared flags (-workers, -timeout, -progress) on the
// default flag set and returns the Common carrying their values after
// flag.Parse.
func New(tool string) *Common {
	c := &Common{Tool: tool}
	flag.IntVar(&c.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS for refinement and generation); shards work, never changes a result")
	flag.DurationVar(&c.Timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.BoolVar(&c.Progress, "progress", false, "report operation progress on stderr")
	return c
}

// MaxStatesFlag additionally registers -max-states with the given
// default; tools that generate state spaces call it before flag.Parse.
func (c *Common) MaxStatesFlag(def int) *Common {
	flag.IntVar(&c.MaxStates, "max-states", def, "state-space bound")
	return c
}

// Context returns the run context honoring -timeout. Call the cancel
// function before exiting.
func (c *Common) Context() (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(context.Background(), c.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Engine builds a multival.Engine from the shared flags plus any
// tool-specific extras (extras win on conflict).
func (c *Common) Engine(extra ...multival.Option) *multival.Engine {
	opts := []multival.Option{
		multival.WithWorkers(c.Workers),
		multival.WithMaxStates(c.MaxStates),
	}
	if c.Progress {
		opts = append(opts, multival.WithProgress(ProgressPrinter(c.Tool, os.Stderr)))
	}
	return multival.NewEngine(append(opts, extra...)...)
}

// Fatal prints the error prefixed with the tool name and exits with the
// given status code.
func (c *Common) Fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Tool, err)
	os.Exit(code)
}

// Usage prints a usage line and exits with status 2.
func (c *Common) Usage(line string) {
	fmt.Fprintf(os.Stderr, "usage: %s\n", line)
	os.Exit(2)
}

// ProgressPrinter returns a throttled ProgressFunc writing one-line
// status updates (at most ~10 per second) to w. It is safe for
// concurrent use: pipeline stages report from several goroutines.
func ProgressPrinter(tool string, w io.Writer) multival.ProgressFunc {
	var mu sync.Mutex
	var last time.Time
	return func(p multival.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		// Completion reports (exact state/transition counts) always
		// print; intermediate ones are throttled.
		if !p.Done && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		switch p.Stage {
		case "compose", "generate":
			if p.Done {
				fmt.Fprintf(w, "%s: %s done: %d states, %d transitions\n", tool, p.Stage, p.States, p.Transitions)
			} else {
				fmt.Fprintf(w, "%s: %s: %d states\n", tool, p.Stage, p.States)
			}
		case "refine", "lump":
			fmt.Fprintf(w, "%s: %s round %d: %d blocks over %d states\n", tool, p.Stage, p.Round, p.Blocks, p.States)
		case "steady", "absorb", "fpt":
			fmt.Fprintf(w, "%s: %s sweep %d: residual %.3g (%d states)\n", tool, p.Stage, p.Round, p.Residual, p.States)
		case "transient", "extract":
			fmt.Fprintf(w, "%s: %s step %d (%d states)\n", tool, p.Stage, p.Round, p.States)
		default:
			fmt.Fprintf(w, "%s: %s: %d states\n", tool, p.Stage, p.States)
		}
	}
}

// SortedKeys returns the keys of a string-keyed map in sorted order, for
// deterministic CLI output.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Watchdog runs f while honoring ctx: when the context expires before f
// returns, the context error is returned instead and f's goroutine is
// abandoned (acceptable in a CLI that exits right after). Use it to give
// -timeout teeth around computations that do not take a context
// themselves (model checking, builtin generators).
func Watchdog[T any](ctx context.Context, f func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// LoadLTS reads an LTS in Aldebaran (.aut) format; "-" reads stdin.
func LoadLTS(path string) (*lts.LTS, error) {
	if path == "-" {
		return aut.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aut.Read(f)
}

// StoreLTS writes an LTS in Aldebaran (.aut) format; "" or "-" writes to
// stdout.
func StoreLTS(path string, l *lts.LTS) error {
	if path == "" || path == "-" {
		return aut.Write(os.Stdout, l)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := aut.Write(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseRelation maps the conventional flag spelling of an equivalence to
// its Relation.
func ParseRelation(s string) (multival.Relation, error) { return multival.ParseRelation(s) }

// Gates splits a comma-separated gate set, trimming blanks; an empty
// string yields nil.
func Gates(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// RateFlag is a repeatable -rate gate=RATE flag accumulating a rate map.
type RateFlag struct {
	Rates map[string]float64
	specs []string
}

// String implements flag.Value.
func (r *RateFlag) String() string { return strings.Join(r.specs, ",") }

// Set implements flag.Value, parsing one gate=rate pair.
func (r *RateFlag) Set(v string) error {
	gate, rateStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("bad rate %q (want gate=rate)", v)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return fmt.Errorf("bad rate in %q: %w", v, err)
	}
	if r.Rates == nil {
		r.Rates = map[string]float64{}
	}
	r.Rates[strings.TrimSpace(gate)] = rate
	r.specs = append(r.specs, v)
	return nil
}
