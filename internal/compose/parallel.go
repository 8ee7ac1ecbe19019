package compose

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"multival/internal/engine"
	"multival/internal/lts"
)

// Sharded product generation: the reachable-state frontier is partitioned
// by tuple hash across opt.Workers shards. Each shard owns its slice of
// the intern map, its local worklist, and the out-edges of its states in
// deterministic emission order. A successor tuple owned by another shard
// is sent to its owner through a per-pair mailbox ("ask"); the owner
// interns it and answers with the local id ("reply"), so termination is a
// quiescence check over the mailboxes — no global lock, no shared map.
//
// Rounds are barrier-synchronized (Blom–Orzan style message rounds): in
// round r every shard (1) patches the edges waiting on replies received
// from round r-1, (2) interns the tuples asked of it in round r-1 and
// queues the replies, (3) drains its local worklist, emitting edges and
// queueing asks for remote successors. The coordinator swaps mailboxes
// between rounds and stops when no asks and no replies are in flight.
//
// Tuples travel as packed uint64 keys (component states bit-packed per
// the plan layout), so a successor key is two bit operations away from
// its source, the intern maps are integer-keyed, and mailboxes carry
// plain words; networks whose tuples exceed 64 bits fall back to the
// sequential generator (see genPlan.packable).
//
// Determinism: per-state successor emission order is a pure function of
// the plan, so a final sequential renumbering pass — a BFS over the
// recorded edges in emission order, numbering states at first encounter —
// reproduces the sequential generator's state numbering, transition order
// and label-interning order exactly. The parallel product is
// state-for-state identical to GenerateSeq, keeping content digests
// (lts.LTS.Hash) and with them the serve layer's artifact keys stable
// across worker counts.

// A state ref packs (shard, local id) into a uint64. While a remote
// successor is unresolved, the edge's dst field instead carries
// pendingFlag plus the index of the next edge waiting for the same tuple
// (a linked list threaded through the edge array, terminated by
// pendingNil); the owner's reply overwrites the whole chain with the
// resolved ref.
const (
	pendingFlag = uint64(1) << 63
	pendingNil  = ^uint32(0)
)

func packRef(shard int, local int32) uint64 {
	return uint64(shard)<<32 | uint64(uint32(local))
}

func unpackRef(r uint64) (shard int, local int32) {
	return int(r >> 32), int32(uint32(r))
}

// mix64 is the splitmix64 finalizer: the shard partition function over
// packed tuple keys. It depends only on the key, so ownership is
// deterministic across runs and worker counts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// genEdge is one recorded product transition: the plan label id and the
// destination ref (or a pending chain link, see pendingFlag).
type genEdge struct {
	lab int32
	dst uint64
}

// shardedGen is the coordinator state shared by all shards.
type shardedGen struct {
	plan   *genPlan
	shards []*genShard

	total  int64       // atomic: tuples interned across all shards
	failed atomic.Bool // set once any shard errors; shards poll it

	errMu sync.Mutex
	err   error
}

// fail records the first error and raises the abort flag all shards poll.
func (g *shardedGen) fail(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
	g.failed.Store(true)
}

func (g *shardedGen) firstErr() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

// genShard owns the tuples whose key hash maps to its index.
type genShard struct {
	id  int
	gen *shardedGen

	index map[uint64]int32 // packed tuple key -> local id
	keys  []uint64         // local id -> packed tuple key
	count int32            // local states interned

	explored int32     // local worklist cursor: states below it have edges
	edges    []genEdge // out-edges in emission order, grouped by state
	edgeOff  []int32   // edgeOff[i]:edgeOff[i+1] brackets state i's edges

	// remote caches the refs of tuples owned elsewhere, so each distinct
	// remote successor is asked exactly once: resolved entries hold the
	// packed ref, pending entries hold pendingFlag|chainHead.
	remote map[uint64]uint64

	// Outgoing mailboxes, indexed by destination shard; the coordinator
	// swaps them between rounds. inflight queues the ask batches awaiting
	// replies per destination (at most two generations deep).
	askOut   [][]uint64
	replyOut [][]int32
	inflight [][][]uint64

	// Scratch buffers reused across emissions.
	tupBuf  []lts.State
	options [][]int32
	idxs    []int
}

// generateSharded is the parallel product generator; see the package
// comment at the top of this file for the algorithm.
func generateSharded(ctx context.Context, plan *genPlan, workers int, progress engine.ProgressFunc) (*lts.LTS, error) {
	g := &shardedGen{plan: plan, shards: make([]*genShard, workers)}
	for w := range g.shards {
		g.shards[w] = &genShard{
			id:       w,
			gen:      g,
			index:    map[uint64]int32{},
			edgeOff:  []int32{0},
			remote:   map[uint64]uint64{},
			askOut:   make([][]uint64, workers),
			replyOut: make([][]int32, workers),
			inflight: make([][][]uint64, workers),
			tupBuf:   make([]lts.State, plan.k),
			options:  make([][]int32, 8),
		}
	}

	// Seed the initial tuple into its owner shard.
	initKey := plan.pack(plan.init)
	initOwner := int(mix64(initKey) % uint64(workers))
	if _, err := g.shards[initOwner].intern(initKey); err != nil {
		return nil, err
	}

	asksIn := make([][][]uint64, workers)
	repliesIn := make([][][]int32, workers)
	for w := range asksIn {
		asksIn[w] = make([][]uint64, workers)
		repliesIn[w] = make([][]int32, workers)
	}

	round := 0
	for ; ; round++ {
		if err := engine.Canceled(ctx); err != nil {
			g.fail(fmt.Errorf("compose: product canceled at %d states: %w", atomic.LoadInt64(&g.total), err))
			break
		}
		var wg sync.WaitGroup
		for _, sh := range g.shards {
			wg.Add(1)
			go func(sh *genShard) {
				defer wg.Done()
				sh.round(ctx, asksIn[sh.id], repliesIn[sh.id])
			}(sh)
		}
		wg.Wait()
		if g.failed.Load() {
			break
		}
		progress.Report(engine.Progress{
			Stage: "compose", States: int(atomic.LoadInt64(&g.total)), Round: round + 1,
		})

		// Swap mailboxes: what every shard queued this round is delivered
		// at the start of the next one. Quiescence — nothing queued
		// anywhere — means every tuple is interned, every edge resolved.
		pending := false
		for _, sh := range g.shards {
			for u := range g.shards {
				if len(sh.askOut[u]) > 0 || len(sh.replyOut[u]) > 0 {
					pending = true
				}
			}
		}
		if !pending {
			break
		}
		for v := range g.shards {
			for u := range g.shards {
				asksIn[v][u] = g.shards[u].askOut[v]
				repliesIn[v][u] = g.shards[u].replyOut[v]
				g.shards[u].askOut[v] = nil
				g.shards[u].replyOut[v] = nil
			}
		}
	}
	if err := g.firstErr(); err != nil {
		return nil, err
	}
	out, err := g.replay(ctx, initOwner)
	if err != nil {
		return nil, err
	}
	progress.Report(engine.Progress{
		Stage: "compose", States: out.NumStates(), Transitions: out.NumTransitions(), Round: round + 1, Done: true,
	})
	return out, nil
}

// round is one barrier-to-barrier step of a shard: patch, serve, explore.
func (sh *genShard) round(ctx context.Context, asksIn [][]uint64, repliesIn [][]int32) {
	// 1. Patch the edges whose asks were answered: replies from shard v
	// align one-to-one with the oldest ask batch sent to v.
	for v, replies := range repliesIn {
		if len(replies) == 0 {
			continue
		}
		batch := sh.inflight[v][0]
		sh.inflight[v] = sh.inflight[v][1:]
		if len(batch) != len(replies) {
			panic(fmt.Sprintf("compose: shard %d: %d replies for %d asks from shard %d",
				sh.id, len(replies), len(batch), v))
		}
		for j, local := range replies {
			sh.resolve(batch[j], packRef(v, local))
		}
	}

	// 2. Serve the asks received: intern each tuple (discovering new
	// local states) and queue the local ids as replies.
	for u, keys := range asksIn {
		if len(keys) == 0 {
			continue
		}
		replies := sh.replyOut[u]
		for _, key := range keys {
			id, err := sh.intern(key)
			if err != nil {
				sh.gen.fail(err)
				return
			}
			replies = append(replies, id)
		}
		sh.replyOut[u] = replies
	}

	// 3. Drain the local worklist: every state interned so far (by asks
	// or by local successors) is explored this round; only remote
	// successors wait for the next exchange.
	steps := 0
	for sh.explored < sh.count {
		if steps%genCheckEvery == 0 {
			if sh.gen.failed.Load() {
				return
			}
			if err := engine.Canceled(ctx); err != nil {
				sh.gen.fail(fmt.Errorf("compose: product canceled at %d states: %w",
					atomic.LoadInt64(&sh.gen.total), err))
				return
			}
		}
		steps++
		if err := sh.explore(sh.explored); err != nil {
			sh.gen.fail(err)
			return
		}
		sh.explored++
		sh.edgeOff = append(sh.edgeOff, int32(len(sh.edges)))
	}

	// Remember the ask batches sent this round; their replies patch the
	// pending chains two rounds from now.
	for v := range sh.askOut {
		if len(sh.askOut[v]) > 0 {
			sh.inflight[v] = append(sh.inflight[v], sh.askOut[v])
		}
	}
}

// resolve overwrites the pending chain of key with the final ref.
func (sh *genShard) resolve(key, ref uint64) {
	cur := uint32(sh.remote[key])
	for cur != pendingNil {
		next := uint32(sh.edges[cur].dst)
		sh.edges[cur].dst = ref
		cur = next
	}
	sh.remote[key] = ref
}

// intern assigns a local id to a packed tuple key owned by this shard,
// charging the global state bound.
func (sh *genShard) intern(key uint64) (int32, error) {
	if id, ok := sh.index[key]; ok {
		return id, nil
	}
	g := sh.gen
	if total := atomic.AddInt64(&g.total, 1); total > int64(g.plan.bound) {
		return 0, &ExplosionError{g.plan.bound}
	}
	id := sh.count
	sh.count++
	sh.index[key] = id
	sh.keys = append(sh.keys, key)
	return id, nil
}

// explore emits the successors of local state loc in the same order as
// the sequential generator: interleaved moves per component in CSR row
// order, then synchronized moves per entry in plan order with the
// cartesian odometer.
func (sh *genShard) explore(loc int32) error {
	plan := sh.gen.plan
	key := sh.keys[loc]
	tp := sh.tupBuf
	for i := range tp {
		tp[i] = lts.State(key >> plan.shift[i] & (^plan.clear[i] >> plan.shift[i]))
	}

	// Interleaved moves (tau and non-sync labels).
	for i, c := range plan.comps {
		labs, dsts := c.Out(tp[i])
		base := key & plan.clear[i]
		shift := plan.shift[i]
		for ti := range labs {
			id := labs[ti]
			if plan.sync[i][id] {
				continue
			}
			if err := sh.emit(plan.moveLab[i][id], base|uint64(uint32(dsts[ti]))<<shift); err != nil {
				return err
			}
		}
	}

	// Synchronized moves, per sync label with all participants
	// simultaneously enabled.
	for ei := range plan.entries {
		se := &plan.entries[ei]
		options := sh.options
		if cap(options) < len(se.parts) {
			options = make([][]int32, len(se.parts))
			sh.options = options
		}
		options = options[:len(se.parts)]
		enabled := true
		for pi, i := range se.parts {
			if se.ids[pi] < 0 {
				enabled = false
				break
			}
			dsts := plan.comps[i].Succ(tp[i], se.ids[pi])
			if len(dsts) == 0 {
				enabled = false
				break
			}
			options[pi] = dsts
		}
		if !enabled {
			continue
		}
		if cap(sh.idxs) < len(se.parts) {
			sh.idxs = make([]int, len(se.parts))
		}
		idxs := sh.idxs[:len(se.parts)]
		for p := range idxs {
			idxs[p] = 0
		}
		for {
			succ := key
			for pi, i := range se.parts {
				succ = succ&plan.clear[i] | uint64(uint32(options[pi][idxs[pi]]))<<plan.shift[i]
			}
			if err := sh.emit(se.lab, succ); err != nil {
				return err
			}
			p := len(idxs) - 1
			for p >= 0 {
				idxs[p]++
				if idxs[p] < len(options[p]) {
					break
				}
				idxs[p] = 0
				p--
			}
			if p < 0 {
				break
			}
		}
	}
	return nil
}

// emit records one edge from the state currently being explored to the
// successor key, interning locally or asking the owning shard.
func (sh *genShard) emit(lab int32, key uint64) error {
	owner := int(mix64(key) % uint64(len(sh.gen.shards)))
	if owner == sh.id {
		id, err := sh.intern(key)
		if err != nil {
			return err
		}
		sh.edges = append(sh.edges, genEdge{lab: lab, dst: packRef(sh.id, id)})
		return nil
	}

	if r, ok := sh.remote[key]; ok {
		// Resolved earlier, or already asked: emit directly, or join the
		// chain waiting for the owner's reply.
		sh.edges = append(sh.edges, genEdge{lab: lab, dst: r})
		if r&pendingFlag != 0 {
			sh.remote[key] = pendingFlag | uint64(uint32(len(sh.edges)-1))
		}
		return nil
	}
	// First sight of this remote tuple: queue an ask to its owner.
	sh.edges = append(sh.edges, genEdge{lab: lab, dst: pendingFlag | uint64(pendingNil)})
	sh.remote[key] = pendingFlag | uint64(uint32(len(sh.edges)-1))
	sh.askOut[owner] = append(sh.askOut[owner], key)
	return nil
}

// replay renumbers the sharded product into the sequential state order: a
// BFS from the initial tuple over the recorded edges in emission order,
// numbering states at first encounter and interning labels at first
// transition — byte-for-byte the sequential generator's construction,
// assembled through the bulk lts.Build constructor.
func (g *shardedGen) replay(ctx context.Context, initOwner int) (*lts.LTS, error) {
	numStates := int(atomic.LoadInt64(&g.total))
	numEdges := 0
	for _, sh := range g.shards {
		numEdges += len(sh.edges)
	}
	labelMemo := make([]int32, len(g.plan.labels))
	for i := range labelMemo {
		labelMemo[i] = -1
	}
	var labels []string
	renum := make([][]int32, len(g.shards))
	for w, sh := range g.shards {
		renum[w] = make([]int32, sh.count)
		for i := range renum[w] {
			renum[w][i] = -1
		}
	}

	order := make([]uint64, 1, numStates)
	order[0] = packRef(initOwner, 0)
	renum[initOwner][0] = 0
	next := int32(1)
	src := make([]int32, 0, numEdges)
	lab := make([]int32, 0, numEdges)
	dst := make([]int32, 0, numEdges)

	for qi := 0; qi < len(order); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("compose: product canceled at %d states: %w", len(order), err)
			}
		}
		w, loc := unpackRef(order[qi])
		sh := g.shards[w]
		edges := sh.edges[sh.edgeOff[loc]:sh.edgeOff[loc+1]]
		for e := range edges {
			ed := &edges[e]
			if ed.dst&pendingFlag != 0 {
				panic(fmt.Sprintf("compose: shard %d left an unresolved edge after quiescence", w))
			}
			dw, dloc := unpackRef(ed.dst)
			d := renum[dw][dloc]
			if d < 0 {
				d = next
				next++
				renum[dw][dloc] = d
				order = append(order, ed.dst)
			}
			lid := labelMemo[ed.lab]
			if lid < 0 {
				lid = int32(len(labels))
				labels = append(labels, g.plan.labels[ed.lab])
				labelMemo[ed.lab] = lid
			}
			src = append(src, int32(qi))
			lab = append(lab, lid)
			dst = append(dst, d)
		}
	}
	return lts.Build("product", numStates, 0, labels, src, lab, dst), nil
}
