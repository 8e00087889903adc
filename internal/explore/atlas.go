package explore

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/flpsim/flp/internal/model"
)

// Atlas is a one-pass valency classification of an entire reachable
// configuration graph: the graph is materialized once (breadth-first from
// the root, the same expansion and admission rules as every engine in this
// package, so node order is byte-identical to Explore's visit order at any
// worker count), successor and predecessor adjacency is recorded in
// struct-of-arrays form keyed by dense node id, and every node's
// {reaches-a-0-decision, reaches-a-1-decision} bits are computed by one
// backward breadth-first propagation per decision value over the reverse
// edges. That classifies all V nodes exactly — 0-valent, 1-valent,
// bivalent, or stuck — in O(V+E), where the per-configuration Classify
// costs O(V+E) for a single node.
//
// An Atlas exists only for exhausted reachable sets: BuildAtlas reports
// ok=false instead of returning a truncated graph, so every answer an Atlas
// gives is exact and callers fall back to budgeted per-configuration
// classification exactly when the state space exceeds the budget. The
// backward distances double as shortest-witness lengths; witness schedules
// are recovered on demand by walking forward edges along decreasing
// distance, which makes every witness shortest in event count — the same
// length Classify's breadth-first search produces.
//
// An Atlas is immutable after construction and safe for concurrent use.
type Atlas struct {
	// core is the node table the atlas was built on (or loaded into):
	// configurations, breadth-first tree links and successor adjacency by
	// dense node id, ids assigned in admission order with the root at 0.
	// Node u's out-edges are g.SuccTo[g.SuccStart[u]:g.SuccStart[u+1]] with
	// event labels g.SuccVia at the same indices, in canonical event order.
	// g.Dist0[u] / g.Dist1[u] is the length of a shortest schedule from u to
	// a configuration containing decision value 0 / 1, or -1 when none is
	// reachable. These are the decision bits: has0 = Dist0 ≥ 0.
	core

	// Predecessor adjacency in CSR form: node v's in-edges are
	// predFrom[predStart[v]:predStart[v+1]]; predEdge holds each in-edge's
	// index into the successor arrays, so its event label is
	// g.SuccVia[predEdge[i]].
	predStart []int32
	predFrom  []int32
	predEdge  []int32

	// Store-loaded atlases (LoadAtlas) carry the persisted canonical-key
	// table g.Keys, fill the core's index from it once, on the first IDOf,
	// and materialize configurations on demand by replaying the
	// breadth-first tree under cfgMu. Built atlases never touch these.
	keysOnce sync.Once
	cfgMu    sync.Mutex
}

// loaded reports whether the atlas came from LoadAtlas. A built atlas has
// no key table: its core never sets g.Keys (Snapshot builds one on the
// side).
func (a *Atlas) loaded() bool { return a.g.Keys != nil }

// BuildAtlas materializes the reachable configuration graph of pr from
// root and classifies every node, within opt's budget. It reports ok=false
// — and builds nothing usable — when the reachable set exceeds
// opt.MaxConfigs, or when opt.MaxConfigs does not fit the atlas's int32
// node ids; callers then fall back to per-configuration Classify under the
// same options, which is byte-identical in valency, exactness, and witness
// length whenever the atlas would have been available.
//
// The build is one AtlasBuilder extended once and finished, i.e. the
// level-synchronous core (core.go) with edges recorded: it honours
// opt.Workers exactly like ExploreFiltered, a single coordinator merging
// successors in canonical order, so node ids, edges, and witnesses are
// byte-identical at every worker count.
func BuildAtlas(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool) {
	opt = opt.withDefaults()
	if opt.MaxConfigs >= math.MaxInt32 {
		return nil, false
	}
	b := NewAtlasBuilder(pr, root)
	b.Extend(opt)
	return b.Finish() // refuses a builder the budget stopped: no truncated atlases
}

// buildPred inverts the successor CSR into the predecessor CSR by the
// usual two-pass count-then-fill.
func (a *Atlas) buildPred() {
	V := len(a.cfgs)
	a.predStart = make([]int32, V+1)
	for _, v := range a.g.SuccTo {
		a.predStart[v+1]++
	}
	for i := 0; i < V; i++ {
		a.predStart[i+1] += a.predStart[i]
	}
	a.predFrom = make([]int32, len(a.g.SuccTo))
	a.predEdge = make([]int32, len(a.g.SuccTo))
	cur := make([]int32, V)
	copy(cur, a.predStart[:V])
	for u := 0; u < V; u++ {
		for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
			v := a.g.SuccTo[ei]
			a.predFrom[cur[v]] = int32(u)
			a.predEdge[cur[v]] = ei
			cur[v]++
		}
	}
}

// distToValue is the backward propagation: a multi-source breadth-first
// search over reverse edges from every node whose configuration contains
// decision value val. dist[u] is then the length of a shortest schedule
// from u to a val-decision, -1 when unreachable — node u's "has val" bit
// and witness length in one array.
func (a *Atlas) distToValue(val model.Value) []int32 {
	// Only ever called during construction, where every configuration is
	// materialized; loaded atlases carry their distance columns in the
	// artifact and never run this.
	seed := func(id int32) bool {
		for _, d := range a.cfgs[id].DecisionValues() {
			if d == val {
				return true
			}
		}
		return false
	}
	return a.backwardBFS(seed, nil)
}

// backwardBFS runs the shared reverse fixpoint: dist 0 at every seed node,
// +1 across each usable reverse edge. The seed predicate is keyed by node
// id so it can run off persisted columns without materializing
// configurations. A nil usable admits every edge; distDecidedAvoiding
// passes the p-free restriction.
func (a *Atlas) backwardBFS(seed func(int32) bool, usable func(model.Event) bool) []int32 {
	V := len(a.cfgs)
	dist := make([]int32, V)
	queue := make([]int32, 0, V)
	for i := range dist {
		if seed(int32(i)) {
			queue = append(queue, int32(i))
		} else {
			dist[i] = -1
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for ei := a.predStart[v]; ei < a.predStart[v+1]; ei++ {
			u := a.predFrom[ei]
			if dist[u] >= 0 {
				continue
			}
			if usable != nil && !usable(a.g.SuccVia[a.predEdge[ei]]) {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return dist
}

// distDecidedAvoiding returns, for every node, the length of a shortest
// schedule to a configuration with any decision value in which process p
// takes no steps, -1 when no such run exists. This is the σ of the Lemma 3
// proof's Case 2 ("some finite deciding run from C0 in which p takes no
// steps"), answered for all nodes by one backward pass instead of one
// forward search per node.
func (a *Atlas) distDecidedAvoiding(p model.PID) []int32 {
	// A node contains a decision value exactly when one of its decision
	// distances is zero, so the seed runs off the distance columns — which
	// loaded atlases have even before any configuration is materialized.
	seed := func(id int32) bool { return a.g.Dist0[id] == 0 || a.g.Dist1[id] == 0 }
	return a.backwardBFS(seed, func(e model.Event) bool { return e.P != p })
}

// Edges returns the number of recorded transitions.
func (a *Atlas) Edges() int { return len(a.g.SuccTo) }

// Root returns the configuration the atlas was built from.
func (a *Atlas) Root() *model.Config { return a.cfgs[0] }

// Config returns the configuration of node id. On a built atlas every
// configuration is already materialized; on a store-loaded atlas the
// parent chain is replayed (and verified against the persisted canonical
// keys) on first access, so callers that never touch configurations —
// censuses, valencies, witness lengths — pay no replay at all.
func (a *Atlas) Config(id int32) *model.Config {
	if !a.loaded() {
		return a.cfgs[id]
	}
	a.cfgMu.Lock()
	defer a.cfgMu.Unlock()
	return a.materialize(id)
}

// materialize replays node id's breadth-first parent chain down from the
// deepest already-materialized ancestor. Caller holds cfgMu.
func (a *Atlas) materialize(id int32) *model.Config {
	if a.cfgs[id] != nil {
		return a.cfgs[id]
	}
	// Collect the unmaterialized suffix of the parent chain, then replay
	// it forward.
	chain := []int32{id}
	for p := a.g.Parent[id]; a.cfgs[p] == nil; p = a.g.Parent[p] {
		chain = append(chain, p)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := a.replay(int(chain[i]), a.g.Keys[chain[i]]); err != nil {
			panic(err.Error())
		}
	}
	return a.cfgs[id]
}

// IDOf returns the node id of c. Every configuration reachable from the
// root is present; ok=false means c is not reachable from the root (or is
// the product of a different protocol). A built atlas settles a fingerprint
// hit on the node's configuration; a loaded one, whose configurations may
// not be materialized, on the node's persisted key. The index is read-only
// once the atlas is finished or filled, so IDOf is safe for concurrent use.
func (a *Atlas) IDOf(c *model.Config) (int32, bool) {
	if !a.loaded() {
		return a.lookup(c)
	}
	a.keysOnce.Do(func() {
		for i, k := range a.g.Keys {
			a.index.Insert(model.KeyHash(k), int32(i))
		}
	})
	return a.index.Find(c.Hash(), func(id int32) bool { return bytes.Equal(a.g.Keys[id], c.KeyBytes()) })
}

// ValencyAt returns the exact valency class of node id.
func (a *Atlas) ValencyAt(id int32) Valency {
	has0, has1 := a.g.Dist0[id] >= 0, a.g.Dist1[id] >= 0
	switch {
	case has0 && has1:
		return Bivalent
	case has0:
		return ZeroValent
	case has1:
		return OneValent
	default:
		return Stuck
	}
}

// Witness returns a shortest schedule from node id to a configuration
// containing decision value d, ok=false when none is reachable. Recovery
// walks forward edges in canonical order along strictly decreasing
// backward distance, so the schedule is deterministic and shortest.
func (a *Atlas) Witness(id int32, d model.Value) (model.Schedule, bool) {
	dist := a.distFor(d)
	if dist[id] < 0 {
		return nil, false
	}
	return a.descend(id, dist), true
}

func (a *Atlas) distFor(d model.Value) []int32 {
	if d == model.V0 {
		return a.g.Dist0
	}
	return a.g.Dist1
}

// descend recovers a shortest schedule from u to a dist-0 node by greedy
// descent: at each step, the first out-edge in canonical order whose head
// is one closer. The backward search guarantees such an edge exists at
// every node with dist > 0.
func (a *Atlas) descend(u int32, dist []int32) model.Schedule {
	sigma, _ := a.descendWhere(u, dist, nil)
	return sigma
}

// descendWhere is descend restricted to edges accepted by usable — the
// filter must be the one the dist array was computed under, so that a
// usable edge one closer exists at every node with dist > 0. It also
// returns the dist-0 node the schedule ends at.
func (a *Atlas) descendWhere(u int32, dist []int32, usable func(model.Event) bool) (model.Schedule, int32) {
	sigma := make(model.Schedule, 0, dist[u])
	for dist[u] > 0 {
		next := int32(-1)
		for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
			if usable != nil && !usable(a.g.SuccVia[ei]) {
				continue
			}
			if v := a.g.SuccTo[ei]; dist[v] >= 0 && dist[v] == dist[u]-1 {
				sigma = append(sigma, a.g.SuccVia[ei])
				next = v
				break
			}
		}
		if next < 0 {
			panic(fmt.Sprintf("explore: atlas distance invariant broken at node %d", u))
		}
		u = next
	}
	return sigma, u
}

// PathTo returns a shortest schedule from the root to node id, recovered
// from the breadth-first tree's parent pointers.
func (a *Atlas) PathTo(id int32) model.Schedule { return a.g.PathTo(int(id)) }

// InfoAt returns node id's full classification with witness schedules, in
// the same shape Classify produces. Valency, exactness, and witness
// lengths match a per-configuration Classify under any budget that covers
// the node's reachable set; Visited and the witness schedules themselves
// may differ (the atlas reports the shared graph's size and recovers its
// own — equally shortest — witnesses).
func (a *Atlas) InfoAt(id int32) ValencyInfo {
	info := ValencyInfo{
		Valency:  a.ValencyAt(id),
		Exact:    true,
		Complete: true,
		Visited:  a.Len(),
		hasZero:  a.g.Dist0[id] >= 0,
		hasOne:   a.g.Dist1[id] >= 0,
	}
	if info.hasZero {
		info.Witness0 = a.descend(id, a.g.Dist0)
	}
	if info.hasOne {
		info.Witness1 = a.descend(id, a.g.Dist1)
	}
	return info
}

// Info is InfoAt keyed by configuration; ok=false when c is not in the
// atlas (not reachable from the root).
func (a *Atlas) Info(c *model.Config) (ValencyInfo, bool) {
	id, ok := a.IDOf(c)
	if !ok {
		return ValencyInfo{}, false
	}
	return a.InfoAt(id), true
}

// Census tallies the valency class of every node — the whole-graph census
// that per-configuration classification pays O(V·(V+E)) for.
func (a *Atlas) Census() map[Valency]int {
	counts := make(map[Valency]int)
	for id := range a.cfgs {
		counts[a.ValencyAt(int32(id))]++
	}
	return counts
}

// succByEvent resolves e's transition out of node u on recorded adjacency:
// the edge labeled Same(e) when present, u itself for a null event with no
// edge (null events are skipped during expansion exactly when they are
// no-ops, where e(u) = u), and ok=false for an unrecorded delivery (e is
// not applicable at u).
func (a *Atlas) succByEvent(u int32, e model.Event) (int32, bool) {
	for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
		if a.g.SuccVia[ei].Same(e) {
			return a.g.SuccTo[ei], true
		}
	}
	if e.IsNull() {
		return u, true
	}
	return 0, false
}

// memberSucc is succByEvent for a member u of ℰ, at which e is applicable
// by the model's contract (see Frontier).
func (a *Atlas) memberSucc(u int32, e model.Event) int32 {
	d, ok := a.succByEvent(u, e)
	if !ok {
		panic(fmt.Sprintf("explore: event %s not applicable to member of ℰ; model invariant broken", e))
	}
	return d
}

// frontierWalk is Lemma 3's set ℰ on recorded adjacency: the nodes
// reachable from node from without applying events Same as e, in
// breadth-first order with out-edges taken in canonical order — Explore's
// visit order from the same configuration under AvoidFilter(&e) — and the
// breadth-first tree that order induces.
type frontierWalk struct {
	from  int32
	order []int32
	// tree is by node id: 0 for a node outside ℰ, -1 for from, and
	// otherwise 1 + the index into g.SuccTo of the edge that first reached
	// the node — the last event of Explore's path to it.
	tree []int32
}

// frontier walks ℰ from node from, avoiding e. diamondOnAtlas,
// figure3OnAtlas and CensusLemma3's atlas route all read ℰ off this one
// walk.
func (a *Atlas) frontier(from int32, e model.Event) frontierWalk {
	w := frontierWalk{from: from, order: make([]int32, 0, len(a.cfgs)), tree: make([]int32, len(a.cfgs))}
	w.tree[from] = -1
	w.order = append(w.order, from)
	for qi := 0; qi < len(w.order); qi++ {
		u := w.order[qi]
		for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
			if a.g.SuccVia[ei].Same(e) {
				continue
			}
			if v := a.g.SuccTo[ei]; w.tree[v] == 0 {
				w.tree[v] = ei + 1
				w.order = append(w.order, v)
			}
		}
	}
	return w
}

// path returns member v's schedule from the walk's start along the tree:
// the schedule Explore's path reports for v under the same filter.
func (w frontierWalk) path(a *Atlas, v int32) model.Schedule {
	var rev model.Schedule
	for v != w.from {
		ei := w.tree[v] - 1
		rev = append(rev, a.g.SuccVia[ei])
		// The edge's tail is the node whose row holds index ei.
		v = int32(sort.Search(len(a.g.SuccStart)-1, func(u int) bool { return a.g.SuccStart[u+1] > ei }))
	}
	slices.Reverse(rev)
	return rev
}
