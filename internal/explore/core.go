package explore

import (
	"bytes"
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// core is the one level-synchronous breadth-first engine of this package.
// ExploreFiltered at Workers > 1, AtlasBuilder.Extend and (through the
// builder) BuildAtlas all run walk over one node table; the fused
// sequential loop in ExploreFiltered is deliberately not built on it — it
// is the oracle the conformance and determinism suites compare this code
// against.
//
// The node table is struct-of-arrays keyed by dense node id in admission
// order: cfgs beside the graph columns of g, which is the exported
// AtlasSnapshot so that a builder, a finished atlas and a persisted
// snapshot hand the same value around instead of copying columns. A walk
// records successor edges exactly when g.SuccStart is non-nil.
type core struct {
	pr   model.Protocol
	skip func(model.Event) bool
	// index maps configurations to node ids (the interner tag is the id);
	// it is nil on a store-loaded atlas, which answers from g.Keys.
	index *model.Interner
	cfgs  []*model.Config
	g     AtlasSnapshot
}

// newCore returns a core holding just the root, nothing expanded.
func newCore(pr model.Protocol, root *model.Config, skip func(model.Event) bool, edges bool) core {
	c := core{pr: pr, skip: skip, index: model.NewInterner()}
	c.index.InternTag(root, 0)
	c.admit(root, -1, model.Event{})
	if edges {
		c.g.SuccStart = []int32{0} // CSR sentinel: node u's edges are SuccStart[u]:SuccStart[u+1]
	}
	return c
}

// Len returns the number of admitted nodes.
func (c *core) Len() int { return len(c.cfgs) }

// admit appends one node's table entries (everything except the successor
// CSR row, which closes when the node is expanded).
func (c *core) admit(cfg *model.Config, parent int32, via model.Event) {
	d := int32(0)
	if parent >= 0 {
		d = c.g.Depth[parent] + 1
	}
	c.cfgs = append(c.cfgs, cfg)
	c.g.Depth = append(c.g.Depth, d)
	c.g.Parent = append(c.g.Parent, parent)
	c.g.ParentVia = append(c.g.ParentVia, via)
}

// walk advances the breadth-first trajectory from node from — the first
// node not yet visited/expanded — under opt's bounds (defaults applied),
// and reports whether it exhausted the reachable set: false when a bound
// cut something off or visit stopped it. Levels are contiguous id ranges
// (successors always land after every node of the current depth), so a
// level is expanded a chunk at a time on the worker pool when opt.Workers
// > 1, or node by node inline otherwise, and each chunk is then visited
// and merged in id order by this one goroutine. That fixed merge order is
// what makes every array, count and truncation flag independent of the
// worker count.
//
// The pool speculates: it may expand nodes the budget then discards. The
// ledger bounds that slack to one chunk (SpecChunk), and a node is merged
// only while the ledger is not sealed — the per-node test the sequential
// oracle makes — so the nodes whose successors are merged, and everything
// observable, are the oracle's whatever the chunking.
//
// A walk that records edges stops at the first node it may not expand in
// full (depth cap or budget), because CSR rows close in node order — the
// table is then at a clean node boundary a later walk resumes from. A walk
// that records none carries on, so every admitted node is still visited.
func (c *core) walk(from int, opt Options, visit Visit) (complete bool) {
	edges := c.g.SuccStart != nil
	led := NewLedger(opt)
	led.Count = c.Len()
	var pool succPool
	var inline []Successor
	end := from
	for end < len(c.cfgs) && c.g.Depth[end] == c.g.Depth[from] {
		end++
	}
	for start := from; start < end; start, end = end, len(c.cfgs) {
		depth := int(c.g.Depth[start])
		for lo := start; lo < end; {
			hi := end
			var exps [][]Successor
			if opt.Workers > 1 && !led.Sealed() && !opt.DepthCapped(depth) {
				hi = lo + SpecChunk(end-lo, led.MaxConfigs-led.Count, lo, led.Count, opt.Workers)
				exps = expandLevel(c.pr, c.skip, c.cfgs[lo:hi], opt.Workers, &pool)
			}
			for u := lo; u < hi; u++ {
				if visit != nil && visit(c.cfgs[u], depth, func() model.Schedule { return c.pathTo(u) }) {
					return false
				}
				closed := false
				if led.ShouldExpand(depth) && !led.Sealed() {
					if exps != nil {
						closed = c.merge(u, exps[u-lo], led)
					} else {
						inline = AppendSuccessors(c.pr, c.cfgs[u], c.skip, inline)
						closed = c.merge(u, inline, led)
					}
				}
				if edges && !closed {
					return false
				}
			}
			pool.recycle(exps)
			lo = hi
		}
	}
	return led.Complete()
}

// SpecChunk sizes the next speculative expansion of a level with remaining
// nodes left, for every engine that expands ahead of the ledger (walk's
// pool here, the distexplore coordinator's workers): as many nodes as the
// budget's room is expected to pay for at the table's running rate of
// admissions per expanded node (count over expanded, so at least one),
// floored at a few nodes per worker so the workers stay busy, and capped at
// the level's remainder — which is the whole answer while the budget is
// far.
func SpecChunk(remaining, room, expanded, count, workers int) int {
	n := float64(room)
	if expanded > 0 {
		n *= float64(expanded) / float64(count)
	}
	if n >= float64(remaining) {
		return remaining
	}
	return min(max(int(n), 4*workers), remaining)
}

// merge folds node u's successors into the table in canonical event order
// and reports whether u's successor list was taken in full. The budget
// rule is the one policy that depends on what the walk records. Without
// edges, first-seen configurations are admitted until the ledger is full
// and the rest of the list is dropped. With edges a half-recorded row
// would be unusable, so a node whose distinct fresh successors do not all
// fit is not merged at all; counting them costs a pre-scan, which runs
// only when the raw successor count could overflow.
func (c *core) merge(u int, succs []Successor, led *Ledger) bool {
	edges := c.g.SuccStart != nil
	if edges && len(c.cfgs)+len(succs) > led.MaxConfigs && len(c.cfgs)+c.freshAmong(succs) > led.MaxConfigs {
		led.Truncated = true
		return false
	}
	for _, s := range succs {
		id := int32(len(c.cfgs))
		if got, fresh := c.index.InternTag(s.Cfg, uint64(id)); !fresh {
			id = int32(got)
		} else if led.Admit() {
			c.admit(s.Cfg, int32(u), s.Via)
		} else {
			return false
		}
		if edges {
			// Edges to already-admitted configurations are recorded too:
			// valency is a reachability property, and the breadth-first
			// tree alone does not carry cross-edge reachability.
			c.g.SuccTo = append(c.g.SuccTo, id)
			c.g.SuccVia = append(c.g.SuccVia, s.Via)
		}
	}
	if edges {
		c.g.SuccStart = append(c.g.SuccStart, int32(len(c.g.SuccTo)))
	}
	return true
}

// freshAmong counts the distinct configurations in succs not yet admitted
// — the budget cost of expanding their node — without interning anything.
func (c *core) freshAmong(succs []Successor) int {
	fresh := 0
	for i := range succs {
		if _, known := c.index.Tag(succs[i].Cfg); known {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if succs[j].Cfg.Equal(succs[i].Cfg) {
				dup = true
				break
			}
		}
		if !dup {
			fresh++
		}
	}
	return fresh
}

// pathTo returns the shortest schedule from the root to node id.
func (c *core) pathTo(id int) model.Schedule {
	return treePath(id, int(c.g.Depth[id]), func(i int) (int, model.Event) {
		return int(c.g.Parent[i]), c.g.ParentVia[i]
	})
}

// treePath rebuilds the root-to-node schedule of node i, which sits at the
// given depth of a breadth-first tree, by following link — a node's parent
// and the event that reached it from there — back to the root. No engine
// stores schedules; this is the one place they are recovered.
func treePath(i, depth int, link func(int) (parent int, via model.Event)) model.Schedule {
	sigma := make(model.Schedule, depth)
	for d := depth - 1; d >= 0; d-- {
		i, sigma[d] = link(i)
	}
	return sigma
}

// replay materializes node u — whose parent must already be materialized —
// as its tree edge applied to its parent's configuration, verified
// byte-for-byte against the persisted canonical key: one protocol step, no
// re-exploration, and corruption (or a protocol whose semantics have
// drifted since the snapshot was taken) surfaces on the first divergent
// node, never as a wrong configuration.
func (c *core) replay(u int, key []byte) error {
	cfg, err := model.Apply(c.pr, c.cfgs[c.g.Parent[u]], c.g.ParentVia[u])
	if err != nil {
		return fmt.Errorf("explore: snapshot replay failed at node %d: %w", u, err)
	}
	if !bytes.Equal(cfg.KeyBytes(), key) {
		return fmt.Errorf("explore: snapshot replay diverged at node %d (stored key does not match)", u)
	}
	c.cfgs[u] = cfg
	return nil
}

// Snapshot captures the exploration state for persistence: the table's
// columns (distance columns included once an Atlas has computed them) and
// each node's binary canonical key. The arrays alias the live ones — do
// not Extend while a snapshot is being serialized.
func (c *core) Snapshot() *AtlasSnapshot {
	s := c.g
	if s.Keys == nil {
		s.Keys = make([][]byte, len(c.cfgs))
		for i, cfg := range c.cfgs {
			s.Keys[i] = cfg.KeyBytes()
		}
	}
	return &s
}
