package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multival"
)

// Layers are the repository modules the traced run attributes time to,
// in report order. Every span the workloads open around a call into the
// system names one of them (or "serve" for an HTTP request).
var layers = []string{
	"process", "compose", "bisim", "mcl",
	"imc.decorate", "imc.lump", "imc.extract",
	"markov.steady", "markov.hitting", "markov.transient",
}

// span is one timed interval of the traced run. Spans of one operation
// (one model's verification flow, one evaluation, one HTTP request) share
// Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	Op        int    `json:"op"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	AllocB    uint64 `json:"alloc_bytes,omitempty"`
	StatesIn  int    `json:"states_in,omitempty"`
	StatesOut int    `json:"states_out,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer times every call a workload makes into the system. Untraced, it
// records only each call's latency; traced, it also keeps one span per
// call with the call's allocations, states in → out and refinement or
// solver rounds (from progress events). Spans stay in memory until the
// run ends.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ids   int

	// cur is the progress observer of the open layer call, to which
	// engines built by engine forward their progress events.
	cur atomic.Pointer[multival.ProgressFunc]
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// engine returns base untraced, and traced a derived engine that reports
// progress to whichever layer call is open.
func (t *tracer) engine(base *multival.Engine) *multival.Engine {
	if !t.on {
		return base
	}
	return base.With(multival.WithProgress(func(p multival.Progress) {
		if f := t.cur.Load(); f != nil {
			(*f)(p)
		}
	}))
}

// op is an open operation: the root span under which layer calls nest.
type op struct {
	t    *tracer
	root span
}

// begin opens an operation. Untraced it returns an op that records nothing.
func (t *tracer) begin(name string) *op {
	o := &op{t: t}
	if t.on {
		t.mu.Lock()
		t.ids++
		o.root = span{Op: t.ids, ID: t.ids, Name: name, StartNS: t.now()}
		t.mu.Unlock()
	}
	return o
}

// end closes the operation's root span.
func (o *op) end() {
	if !o.t.on {
		return
	}
	o.root.EndNS = o.t.now()
	o.t.add(o.root)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// counts is what a layer call reports about its own work.
type counts struct{ in, out int }

// layer runs fn as one call into the named layer. Traced, fn receives a
// progress observer (nil otherwise) to hand to the layer, and the call
// becomes a child span of the operation.
func (o *op) layer(name string, fn func(pr multival.ProgressFunc) (counts, error)) error {
	if !o.t.on {
		_, err := fn(nil)
		return err
	}
	var rounds atomic.Int64
	var pr multival.ProgressFunc = func(p multival.Progress) {
		for {
			cur := rounds.Load()
			if int64(p.Round) <= cur || rounds.CompareAndSwap(cur, int64(p.Round)) {
				return
			}
		}
	}
	o.t.cur.Store(&pr)
	defer o.t.cur.Store(nil)
	a0 := heapAllocs()
	o.t.mu.Lock()
	o.t.ids++
	id := o.t.ids
	o.t.mu.Unlock()
	s := span{Op: o.root.Op, ID: id, Parent: o.root.ID, Name: name, StartNS: o.t.now()}
	c, err := fn(pr)
	s.EndNS = o.t.now()
	s.AllocB = heapAllocs() - a0
	s.StatesIn, s.StatesOut = c.in, c.out
	if name != "imc.extract" { // extraction reports a state index as Round
		s.Rounds = int(rounds.Load())
	}
	o.t.add(s)
	return err
}

// request records one client request of the served workloads as an
// operation with a single "serve" span.
func (t *tracer) request(start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.ids++
	t.spans = append(t.spans, span{
		Op: t.ids, ID: t.ids, Name: "serve",
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	calls   int
	busyNS  int64 // self time
	allocB  uint64
	in, out int
	rounds  int
}

// selfTimes aggregates the spans by name: call counts, self time (a
// span's duration minus the union of its children's intervals), and the
// counters the layer calls reported.
func (t *tracer) selfTimes() map[string]*layerStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.busyNS += s.dur() - covered(children[s.ID])
		st.allocB += s.AllocB
		st.in += s.StatesIn
		st.out += s.StatesOut
		st.rounds += s.Rounds
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total, end int64 = 0, -1 << 62
	for _, s := range spans {
		switch {
		case s.StartNS >= end:
			total += s.dur()
			end = s.EndNS
		case s.EndNS > end:
			total += s.EndNS - end
			end = s.EndNS
		}
	}
	return total
}

// dump writes the header and the spans as JSON lines to path, creating
// its directory.
func (t *tracer) dump(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
