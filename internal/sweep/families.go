package sweep

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"multival/internal/chp"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/lotos"
	"multival/internal/lts"
	"multival/internal/process"
	"multival/internal/xstream"
)

// familyMaxStates bounds the state space of a single component build; a
// family instance that exceeds it fails with the engine's usual
// state-bound error instead of exhausting memory mid-sweep.
const familyMaxStates = 1 << 20

// families is the registry, populated at init and immutable afterwards.
var families = map[string]*Family{}

func register(f *Family) {
	if _, dup := families[f.Name]; dup {
		panic("sweep: duplicate family " + f.Name)
	}
	families[f.Name] = f
}

// Lookup resolves a family by name.
func Lookup(name string) (*Family, bool) {
	f, ok := families[name]
	return f, ok
}

// Names lists the registered families, sorted.
func Names() []string {
	out := make([]string, 0, len(families))
	for n := range families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Registered lists the registered families, sorted by name.
func Registered() []*Family {
	out := make([]*Family, 0, len(families))
	for _, n := range Names() {
		out = append(out, families[n])
	}
	return out
}

// splitList parses a comma-separated string parameter into fields.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func init() {
	register(xstreamFamily())
	register(fameFamily())
	register(faustFamily())
	register(chpFamily())
	register(lotosFamily())
}

// xstreamFamily is a tandem of credited xSTream network queues: each
// stage is a counting model (occupancy abstraction) with handoff gates
// h<i>, composed by gate synchronization. Arrival rate lambda drives h0,
// service rate mu every later handoff; the final handoff is the marked
// departure whose throughput is the tandem's.
func xstreamFamily() *Family {
	return &Family{
		Name: "xstream",
		Doc:  "tandem of xSTream counting queues (M/M/1/K stages) with arrival rate lambda and service rate mu",
		Params: []Param{
			{Name: "stages", Kind: Int, Role: Structural, Doc: "number of tandem stages", Default: 1, Bounded: true, Min: 1, Max: 4},
			{Name: "capacity", Kind: Int, Role: Structural, Doc: "per-stage buffer capacity", Default: 2, Bounded: true, Min: 1, Max: 8},
			{Name: "lambda", Kind: Float, Role: Rate, Doc: "arrival (push) rate", Default: 1.0, Positive: true},
			{Name: "mu", Kind: Float, Role: Rate, Doc: "service (handoff/pop) rate", Default: 1.0, Positive: true},
			{Name: "at", Kind: Float, Role: Measure, Doc: "transient query time; 0 = steady state", Default: 0.0, Bounded: true, Min: 0, Max: 1e9},
		},
		Build: func(vals Values) (*Instance, error) {
			stages, capacity := vals.Int("stages"), vals.Int("capacity")
			inst := &Instance{
				Rates:   map[string]float64{xstream.StageGate(0): vals.Float("lambda")},
				Markers: []string{xstream.StageGate(stages)},
				At:      vals.Float("at"),
			}
			for i := 0; i < stages; i++ {
				in, out := xstream.StageGate(i), xstream.StageGate(i+1)
				inst.Components = append(inst.Components, Component{
					Key: KeyFor("xstream-stage", map[string]any{"capacity": capacity, "in": in, "out": out}),
					Build: func() (*lts.LTS, error) {
						return xstream.StageModel(capacity, in, out)
					},
				})
				inst.Rates[out] = vals.Float("mu")
				if i > 0 {
					inst.Sync = append(inst.Sync, in)
				}
			}
			return inst, nil
		},
	}
}

// fameFamily is the FAME2 latency-prediction flow as a sweepable
// pipeline: the coherence traffic of one steady-state MPI ping-pong round
// becomes a cyclic LTS of Erlang phase transitions (structure fixed by
// workload × topology × phase count), decorated with per-hop rates
// derived from the interconnect timing. The marked "round" gate makes the
// round rate a throughput and the round latency a mean-time-to measure.
func fameFamily() *Family {
	return &Family{
		Name: "fame",
		Doc:  "FAME2 MPI ping-pong round latency over coherence protocol, topology and interconnect timing",
		Params: []Param{
			{Name: "nodes", Kind: Int, Role: Structural, Doc: "number of nodes", Default: 4, Bounded: true, Min: 2, Max: 16},
			{Name: "topology", Kind: String, Role: Structural, Doc: "interconnect shape", Default: "ring", Enum: []string{"ring", "mesh", "crossbar"}},
			{Name: "protocol", Kind: String, Role: Structural, Doc: "coherence protocol", Default: "msi", Enum: []string{"msi", "mesi"}},
			{Name: "mode", Kind: String, Role: Structural, Doc: "MPI implementation", Default: "eager", Enum: []string{"eager", "rendezvous"}},
			{Name: "chunks", Kind: Int, Role: Structural, Doc: "cache lines per message", Default: 1, Bounded: true, Min: 1, Max: 64},
			{Name: "scratch", Kind: Int, Role: Structural, Doc: "private working-set lines", Default: 0, Bounded: true, Min: 0, Max: 64},
			{Name: "rounds", Kind: Int, Role: Structural, Doc: "warm-up rounds before the measured one", Default: 2, Bounded: true, Min: 1, Max: 8},
			{Name: "erlang_k", Kind: Int, Role: Structural, Doc: "Erlang phases per message delay", Default: 2, Bounded: true, Min: 1, Max: 8},
			{Name: "tbase", Kind: Float, Role: Rate, Doc: "fixed cost per message", Default: 1.0, Positive: true},
			{Name: "thop", Kind: Float, Role: Rate, Doc: "cost per interconnect hop", Default: 0.5, Bounded: true, Min: 0, Max: 1e9},
			{Name: "at", Kind: Float, Role: Measure, Doc: "transient query time; 0 = steady state", Default: 0.0, Bounded: true, Min: 0, Max: 1e9},
		},
		Build: func(vals Values) (*Instance, error) {
			topo, err := fame.ParseTopology(vals.Str("topology"))
			if err != nil {
				return nil, err
			}
			proto, err := fame.ParseProtocol(vals.Str("protocol"))
			if err != nil {
				return nil, err
			}
			mode, err := fame.ParseMode(vals.Str("mode"))
			if err != nil {
				return nil, err
			}
			nodes := vals.Int("nodes")
			w := fame.Workload{
				Nodes:    nodes,
				A:        0,
				B:        nodes / 2, // antipodal on the ring, far corner-ish on the mesh
				Chunks:   vals.Int("chunks"),
				Scratch:  vals.Int("scratch"),
				Protocol: proto,
				Mode:     mode,
				Rounds:   vals.Int("rounds"),
			}
			k := vals.Int("erlang_k")
			tm := fame.Timing{TBase: vals.Float("tbase"), THop: vals.Float("thop"), ErlangK: k}
			// The hop sequence is cheap to recompute here (it feeds the
			// rates); the state-space build stays in the cached closure.
			_, hops, err := fame.RoundTripLTS(w, topo, k)
			if err != nil {
				return nil, err
			}
			rates, err := fame.RoundTripRates(hops, tm)
			if err != nil {
				return nil, err
			}
			return &Instance{
				Components: []Component{{
					Key: KeyFor("fame-round", map[string]any{
						"nodes": nodes, "topology": topo.String(), "protocol": proto.String(),
						"mode": mode.String(), "chunks": w.Chunks, "scratch": w.Scratch,
						"rounds": w.Rounds, "erlang_k": k,
					}),
					Build: func() (*lts.LTS, error) {
						l, _, err := fame.RoundTripLTS(w, topo, k)
						return l, err
					},
				}},
				Rates:      rates,
				Markers:    []string{fame.RoundGate},
				MeanTimeTo: []string{fame.RoundGate},
				At:         vals.Float("at"),
			}, nil
		},
	}
}

// faustFamily is the isochronous-fork circuit (experiment E3): the
// handshake-level implementation (or the specification) with delay rates
// on the visible outputs b and c, measured by throughput and the expected
// time to the first b output. The "unsafe" variant wedges — a reachable
// deadlock makes the first-passage measure fail with the irreducibility
// error — which exercises the sweep's per-instance error taxonomy.
func faustFamily() *Family {
	return &Family{
		Name: "faust",
		Doc:  "FAUST isochronous fork circuit with output rates on b and c",
		Params: []Param{
			{Name: "values", Kind: Int, Role: Structural, Doc: "data values cycled through the fork", Default: 2, Bounded: true, Min: 1, Max: 4},
			{Name: "variant", Kind: String, Role: Structural, Doc: "fork implementation", Default: "wait-both", Enum: []string{"wait-both", "isochronic", "unsafe"}},
			{Name: "spec", Kind: Bool, Role: Structural, Doc: "use the specification instead of the implementation", Default: false},
			{Name: "minimize", Kind: String, Role: Structural, Doc: "functional reduction", Default: "branching", Enum: []string{"", "strong", "branching", "divbranching"}},
			{Name: "rate_b", Kind: Float, Role: Rate, Doc: "delay rate of output b", Default: 1.0, Positive: true},
			{Name: "rate_c", Kind: Float, Role: Rate, Doc: "delay rate of output c", Default: 1.0, Positive: true},
			{Name: "at", Kind: Float, Role: Measure, Doc: "transient query time; 0 = steady state", Default: 0.0, Bounded: true, Min: 0, Max: 1e9},
		},
		Build: func(vals Values) (*Instance, error) {
			variant := faust.ForkWaitBoth
			switch vals.Str("variant") {
			case "isochronic":
				variant = faust.ForkIsochronic
			case "unsafe":
				variant = faust.ForkUnsafe
			}
			values, spec := vals.Int("values"), vals.Boolean("spec")
			key := map[string]any{"values": values, "spec": spec}
			if !spec {
				key["variant"] = variant.String()
			}
			return &Instance{
				Components: []Component{{
					Key: KeyFor("faust-fork", key),
					Build: func() (*lts.LTS, error) {
						if spec {
							return faust.ForkSpec(values)
						}
						return faust.ForkImpl(values, variant)
					},
				}},
				Minimize: vals.Str("minimize"),
				Rates:    map[string]float64{"b": vals.Float("rate_b"), "c": vals.Float("rate_c")},
				Markers:  []string{"b", "c"},
				// First-passage targets are exact labels, and fork outputs
				// carry their data value.
				MeanTimeTo: []string{"b !0"},
				At:         vals.Float("at"),
			}, nil
		},
	}
}

// chpFamily is the FAUST router described in CHP and translated to the
// process calculus: input processes route packets over crossbar wires to
// nondeterministic output mergers. The arbiter makes the decorated model
// nondeterministic, so instances run under the uniform scheduler.
func chpFamily() *Family {
	return &Family{
		Name: "chp",
		Doc:  "CHP-described FAUST router (crossbar + arbiters) under uniform scheduling",
		Params: []Param{
			{Name: "ports", Kind: Int, Role: Structural, Doc: "router ports in use", Default: 2, Bounded: true, Min: 2, Max: 5},
			{Name: "inputs", Kind: Int, Role: Structural, Doc: "active input ports (0 = all)", Default: 0, Bounded: true, Min: 0, Max: 5},
			{Name: "rate_in", Kind: Float, Role: Rate, Doc: "packet arrival rate per active input", Default: 1.0, Positive: true},
			{Name: "rate_out", Kind: Float, Role: Rate, Doc: "packet departure rate per output", Default: 2.0, Positive: true},
			{Name: "at", Kind: Float, Role: Measure, Doc: "transient query time; 0 = steady state", Default: 0.0, Bounded: true, Min: 0, Max: 1e9},
		},
		Build: func(vals Values) (*Instance, error) {
			ports, inputs := vals.Int("ports"), vals.Int("inputs")
			if inputs > ports {
				return nil, fmt.Errorf("inputs %d exceeds ports %d", inputs, ports)
			}
			var active []int
			if inputs > 0 {
				for i := 0; i < inputs; i++ {
					active = append(active, i)
				}
			} else {
				for i := 0; i < ports; i++ {
					active = append(active, i)
				}
			}
			inst := &Instance{
				Components: []Component{{
					Key: KeyFor("chp-router", map[string]any{"ports": ports, "inputs": inputs}),
					Build: func() (*lts.LTS, error) {
						cfg := faust.RouterConfig{Ports: ports}
						if inputs > 0 {
							cfg.InputsActive = active
						}
						// Component.Build takes no context (mvbench pins
						// its signature), so this build cannot be canceled.
						return faust.RouterLTS(context.TODO(), cfg, chp.Options{}, familyMaxStates)
					},
				}},
				Minimize:         "branching", // crossbar wires are hidden
				Rates:            map[string]float64{},
				At:               vals.Float("at"),
				UniformScheduler: true,
			}
			for _, i := range active {
				inst.Rates[fmt.Sprintf("in%d", i)] = vals.Float("rate_in")
			}
			for o := 0; o < ports; o++ {
				g := fmt.Sprintf("out%d", o)
				inst.Rates[g] = vals.Float("rate_out")
				inst.Markers = append(inst.Markers, g)
			}
			return inst, nil
		},
	}
}

// lotosFamily accepts inline LOTOS text with ${name} placeholders: extra
// integer parameters substitute into the source (structural), extra
// rate_<gate> float parameters decorate the named gates. This turns any
// specification the parser accepts into a sweepable workload.
func lotosFamily() *Family {
	return &Family{
		Name:       "lotos",
		Doc:        "inline LOTOS text; extra int params substitute ${name}, extra rate_<gate> floats decorate gates",
		AllowExtra: true,
		Params: []Param{
			{Name: "src", Kind: String, Role: Structural, Doc: "LOTOS source text with optional ${name} placeholders"},
			{Name: "hide", Kind: String, Role: Structural, Doc: "comma-separated gates to hide", Default: ""},
			{Name: "minimize", Kind: String, Role: Structural, Doc: "functional reduction", Default: "", Enum: []string{"", "strong", "branching", "divbranching"}},
			{Name: "markers", Kind: String, Role: Structural, Doc: "comma-separated marker gates", Default: ""},
			{Name: "mean_time_to", Kind: String, Role: Measure, Doc: "comma-separated labels for expected first-passage times", Default: ""},
			{Name: "at", Kind: Float, Role: Measure, Doc: "transient query time; 0 = steady state", Default: 0.0, Bounded: true, Min: 0, Max: 1e9},
		},
		Build: func(vals Values) (*Instance, error) {
			src, ok := vals["src"].(string)
			if !ok {
				return nil, fmt.Errorf("parameter \"src\" must be a string")
			}
			rates := map[string]float64{}
			declared := map[string]bool{
				"src": true, "hide": true, "minimize": true, "markers": true,
				"mean_time_to": true, "at": true,
			}
			for name, v := range vals {
				if declared[name] {
					continue
				}
				if gate, isRate := strings.CutPrefix(name, "rate_"); isRate {
					f, ok := v.(float64)
					if !ok {
						if n, isInt := v.(int); isInt {
							f = float64(n)
						} else {
							return nil, fmt.Errorf("parameter %q: rates must be numbers", name)
						}
					}
					if f <= 0 {
						return nil, fmt.Errorf("parameter %q: rate must be > 0", name)
					}
					if gate == "" {
						return nil, fmt.Errorf("parameter %q names no gate", name)
					}
					rates[gate] = f
					continue
				}
				n, ok := v.(int)
				if !ok {
					return nil, fmt.Errorf("parameter %q: template values must be integers", name)
				}
				placeholder := "${" + name + "}"
				if !strings.Contains(src, placeholder) {
					return nil, fmt.Errorf("parameter %q: source has no %s placeholder", name, placeholder)
				}
				src = strings.ReplaceAll(src, placeholder, fmt.Sprint(n))
			}
			if i := strings.Index(src, "${"); i >= 0 {
				end := strings.IndexByte(src[i:], '}')
				if end < 0 {
					end = len(src) - i - 1
				}
				return nil, fmt.Errorf("unsubstituted placeholder %s in source", src[i:i+end+1])
			}
			if len(rates) == 0 {
				return nil, fmt.Errorf("lotos family needs at least one rate_<gate> parameter")
			}
			resolved := src
			return &Instance{
				Components: []Component{{
					Key: KeyFor("lotos", map[string]any{"src": resolved}),
					Build: func() (*lts.LTS, error) {
						sys, err := lotos.Parse(resolved)
						if err != nil {
							return nil, err
						}
						// Component.Build takes no context (mvbench pins
						// its signature), so this build cannot be canceled.
						return sys.GenerateCtx(context.TODO(), process.GenOptions{MaxStates: familyMaxStates})
					},
				}},
				Hide:       splitList(vals["hide"].(string)),
				Minimize:   vals["minimize"].(string),
				Rates:      rates,
				Markers:    splitList(vals["markers"].(string)),
				MeanTimeTo: splitList(vals["mean_time_to"].(string)),
				At:         vals.Float("at"),
			}, nil
		},
	}
}
