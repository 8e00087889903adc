package explore

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/flpsim/flp/internal/model"
)

// core is the one level-synchronous breadth-first engine of this package.
// ExploreFiltered at every worker count, AtlasBuilder.Extend and (through
// the builder) BuildAtlas all run walk over one node table; ReferenceExplore
// (reach.go) is deliberately not built on it — it is the oracle the
// conformance and determinism suites compare this code against.
//
// The node table is struct-of-arrays keyed by dense node id in admission
// order: cfgs beside the graph columns of g, which is the exported
// AtlasSnapshot so that a builder, a finished atlas and a persisted
// snapshot hand the same value around instead of copying columns.
//
// Every walk records successor rows in g's CSR as nodes close, because
// expand reads them (the diamond rule). A walk that keeps edges keeps them
// all — they are the atlas. One that does not keeps the rows of the
// previous and the current level only, which is where the rule looks:
// rowBase is the node whose row g.SuccStart[0] opens, 0 when edges are kept.
type core struct {
	pr   model.Protocol
	skip func(model.Event) bool
	// index maps configurations to node ids by fingerprint, hits settled
	// by cfgs[id].Equal. A store-loaded atlas, whose cfgs materialize
	// lazily, fills it on first use from g.Keys instead (Atlas.IDOf).
	index   model.Index
	cfgs    []*model.Config
	g       AtlasSnapshot
	edges   bool
	rowBase int
	mem     walkMem
}

// walkMem is the memory walk expands in and outlives no walk's result:
// the pool's successor buffers, the inline row, and one scratch per
// expanding goroutine. It travels with its core — across a builder's
// Extend calls, and with a recycled table (tables) into the next
// exploration.
type walkMem struct {
	pool   candPool
	inline []cand
	scr    []scratch
}

// init makes an empty core hold just root, nothing expanded.
func (c *core) init(pr model.Protocol, root *model.Config, skip func(model.Event) bool) {
	c.pr, c.skip = pr, skip
	c.admit(root, -1, model.Event{})
	c.g.SuccStart = append(c.g.SuccStart, 0) // CSR sentinel: node u's edges are SuccStart[u]:SuccStart[u+1]
}

// tables holds the cores of finished explorations (ExploreFiltered) for
// the next one to walk on, so an exploration allocates its configurations
// — protocol states, their keys, buffers — and, once the pool is warm,
// next to nothing else: node columns, index slots, rows, successor buffers
// and scratch are the last walk's. Cores a result outlives (builders,
// atlases) never enter it.
var tables sync.Pool

// Bounds on what tables keeps. A core whose node columns hold more than
// keepNodes is left to the collector, which bounds one pooled table at
// about 4 MB; so is one whose columns are more than keepSlack times the
// size of the walk that just used it, once past keepFloor, so that a small
// exploration after a huge one never pays to empty the huge table.
const (
	keepNodes = 1 << 14
	keepSlack = 8
	keepFloor = 1 << 10
)

// acquireCore returns a core from tables, or a new one, holding just root.
func acquireCore(pr model.Protocol, root *model.Config, skip func(model.Event) bool) *core {
	c, _ := tables.Get().(*core)
	if c == nil {
		c = new(core)
	}
	c.init(pr, root, skip)
	return c
}

// release empties a finished walk's core into tables and reports whether
// it was kept. Every column that holds pointers is cleared over its whole
// capacity — dropRowsBefore leaves rows past len — so a pooled table keeps
// no configuration of a finished exploration alive. A walk that panicked
// never gets here: its table is dropped, not recycled.
func (c *core) release() (kept bool) {
	if n := cap(c.cfgs); n > keepNodes || n > keepFloor && n > keepSlack*c.Len() {
		return false
	}
	clear(c.cfgs[:cap(c.cfgs)])
	clear(c.g.ParentVia[:cap(c.g.ParentVia)])
	clear(c.g.SuccVia[:cap(c.g.SuccVia)])
	m := &c.mem
	m.pool.recycle(m.pool.exps[:cap(m.pool.exps)]) // a level a stop left unmerged
	clear(m.inline[:cap(m.inline)])
	for i := range m.scr {
		clear(m.scr[i].evs[:cap(m.scr[i].evs)])
		m.scr[i].dr.Reset()
	}
	c.index.Reset()
	c.cfgs = c.cfgs[:0]
	c.g = AtlasSnapshot{
		Depth: c.g.Depth[:0], Parent: c.g.Parent[:0], ParentVia: c.g.ParentVia[:0],
		SuccStart: c.g.SuccStart[:0], SuccTo: c.g.SuccTo[:0], SuccVia: c.g.SuccVia[:0],
	}
	c.pr, c.skip, c.rowBase = nil, nil, 0
	tables.Put(c)
	return true
}

// Len returns the number of admitted nodes.
func (c *core) Len() int { return len(c.cfgs) }

// admit appends one node's table entries (everything except the successor
// CSR row, which closes when the node is expanded) and indexes it.
func (c *core) admit(cfg *model.Config, parent int32, via model.Event) {
	d := int32(0)
	if parent >= 0 {
		d = c.g.Depth[parent] + 1
	}
	c.index.Insert(cfg.Hash(), int32(len(c.cfgs)))
	c.cfgs = append(c.cfgs, cfg)
	c.g.Depth = append(c.g.Depth, d)
	c.g.Parent = append(c.g.Parent, parent)
	c.g.ParentVia = append(c.g.ParentVia, via)
}

// lookup returns the id of the node whose configuration is cfg.
func (c *core) lookup(cfg *model.Config) (int32, bool) {
	return c.index.Find(cfg.Hash(), func(id int32) bool { return c.cfgs[id].Equal(cfg) })
}

// step takes event e on cfg, which must be admitted, and returns its
// successor entry, or false when e is a no-op null event. The step is
// drafted into sc and looked up before anything is built: a duplicate of
// an admitted node, settled on fields, resolves to that node and costs its
// protocol step alone; only a successor the table lacks is built, for
// merge to look up again and admit.
func (c *core) step(sc *scratch, cfg *model.Config, e model.Event) (cand, bool) {
	d := sc.dr.Draft(c.pr, cfg, e)
	if d == nil {
		return cand{}, false
	}
	s := cand{via: e}
	if id, dup := c.index.Find(d.Hash(), func(id int32) bool { return d.Same(c.cfgs[id]) }); dup {
		s.to = id
	} else {
		s.cfg = d.Build()
	}
	sc.dr.Reset()
	return s, true
}

// scratch is the memory one expanding goroutine reuses: the events of the
// node it expands and the draft of the step it takes.
type scratch struct {
	evs []model.Event
	dr  model.Drafter
}

// walk advances the breadth-first trajectory from node from — the first
// node not yet visited/expanded — under opt's budget (defaults applied),
// and reports whether it exhausted the reachable set: false when the budget
// cut something off or visit stopped it. Levels are contiguous id ranges
// (successors always land after every node of the current depth), so a
// level is expanded a chunk at a time on the walk's gang when opt.Workers
// > 1, or node by node inline otherwise, and each chunk is then visited
// and merged in id order by this one goroutine. That fixed merge order is
// what makes every array, count and truncation flag independent of the
// worker count.
//
// The pool speculates: it may expand nodes the budget then discards. The
// ledger bounds that slack to one chunk (SpecChunk), and a node is merged
// only while the ledger is not truncated — the per-node test the sequential
// oracle makes — so the nodes whose successors are merged, and everything
// observable, are the oracle's whatever the chunking.
//
// A walk that records edges stops at the first node it may not expand in
// full under the budget, because CSR rows close in node order — the
// table is then at a clean node boundary a later walk resumes from. A walk
// that records none carries on, so every admitted node is still visited;
// its rows stay a closed prefix all the same, because the only row it can
// leave open is the one that truncates the ledger, after which nothing
// expands.
//
// Every visit of one walk gets the same path func, which reads the node
// being visited; between visits and after the walk it panics (Visit's
// contract), so a retained path cannot read a table that has moved on to
// another walk.
func (c *core) walk(from int, opt Options, visit Visit) (complete bool) {
	led := NewLedger(opt)
	led.Count = c.Len()
	m := &c.mem
	g := m.enlist(opt.Workers)
	if g != nil {
		defer g.dismiss()
	}
	sc := &m.scr[0] // the coordinator's
	var cur *int    // the node being visited, -1 between visits
	var path func() model.Schedule
	if visit != nil {
		cur = new(int)
		*cur = -1
		path = func() model.Schedule {
			if *cur < 0 {
				panic("explore: path called outside its visit")
			}
			return c.g.PathTo(*cur)
		}
	}
	end := from
	for end < len(c.cfgs) && c.g.Depth[end] == c.g.Depth[from] {
		end++
	}
	prev := from
	for start := from; start < end; prev, start, end = start, end, len(c.cfgs) {
		if !c.edges {
			c.dropRowsBefore(prev)
		}
		depth := int(c.g.Depth[start])
		for lo := start; lo < end; {
			hi := end
			var exps [][]cand
			if opt.Workers > 1 && !led.Truncated {
				hi = lo + SpecChunk(end-lo, led.MaxConfigs-led.Count, lo, led.Count, opt.Workers)
				exps = c.expandLevel(lo, hi, g)
			}
			for u := lo; u < hi; u++ {
				if visit != nil {
					*cur = u
					stop := visit(c.cfgs[u], depth, path)
					*cur = -1
					if stop {
						return false
					}
				}
				closed := false
				if !led.Truncated {
					if exps != nil {
						closed = c.merge(u, exps[u-lo], led, sc)
					} else {
						m.inline = c.expand(u, u, sc, m.inline)
						closed = c.merge(u, m.inline, led, sc)
					}
				}
				if c.edges && !closed {
					return false
				}
			}
			m.pool.recycle(exps)
			lo = hi
		}
	}
	return led.Complete()
}

// cand is one entry of an expanded node's successor row on its way to
// merge, in one of three forms: a configuration built by a protocol step
// the table did not hold (cfg set), which merge looks up or admits; a node
// the diamond rule read off closed rows, or that a step turned out to
// duplicate (cfg nil, to the node id); or a target the rule will read off
// the row of a sibling that closes only during the merge of this chunk
// (cfg nil, to the sibling's id complemented).
type cand struct {
	via model.Event
	cfg *model.Config
	to  int32
}

// expand enumerates node u's successor row in canonical event order, under
// the same event filtering as AppendSuccessors, stepping the protocol only
// where Lemma 1 does not already name the answer. Let C be u's tree parent
// and e = (p, ·) the event with u = e(C). An event e′ = (q, ·) of u with
// q ≠ p finds process q in the state it had at C, so:
//
//   - a null e′ missing from C's row was a no-op at C and is one at u;
//   - an e′ in C's row leads to the sibling D′ = e′(C), and e′(u) = e(D′)
//     (Figure 1's commuting diamond) is the target D′'s row lists under e.
//
// Rows before lo are closed and may be read here; a sibling in [lo, u) is
// left for merge, which closes rows in id order (inline expansion passes
// lo = u: everything before u is closed). Whatever the rows cannot answer —
// u's own process, a message e sent, the root, a sibling not before u, a
// row no longer kept — is stepped (core.step), so the rule only ever
// removes work. It is the one place that reads rows by event;
// identity is the shared message record first and the message value
// second, since a sibling may descend from another parent and a restored
// builder's rows were decoded.
//
// A step is looked up as it is taken, against the table as it stood when
// expansion began — inline, every node admitted so far; on the pool, every
// node admitted before the chunk — so a duplicate of any of those is never
// built. Merge looks up what was built, which catches the duplicates of
// nodes admitted during the chunk's own merge.
func (c *core) expand(u, lo int, sc *scratch, dst []cand) []cand {
	dst = dst[:0]
	cfg, via := c.cfgs[u], c.g.ParentVia[u]
	var pvia []model.Event
	var pto []int32
	inherit := false
	if par := c.g.Parent[u]; par >= 0 {
		pvia, pto, inherit = c.row(int(par))
	}
	sc.evs = model.AppendEvents(sc.evs[:0], cfg)
	if cap(dst) < len(sc.evs) {
		dst = make([]cand, 0, len(sc.evs)) // a row has at most one entry per event
	}
	for _, e := range sc.evs {
		if c.skip != nil && c.skip(e) {
			continue
		}
		if inherit && e.P != via.P {
			i := findEvent(pvia, e)
			if i < 0 && e.Msg == nil {
				continue
			}
			if i >= 0 && int(pto[i]) < u {
				if sib := pto[i]; int(sib) >= lo {
					dst = append(dst, cand{via: e, to: ^sib})
					continue
				} else if to, ok := c.rowTarget(int(sib), via); ok {
					dst = append(dst, cand{via: e, to: to})
					continue
				}
			}
		}
		if s, ok := c.step(sc, cfg, e); ok {
			dst = append(dst, s)
		}
	}
	return dst
}

// row returns node u's successor row — events and targets at matching
// indices — when it is closed and still kept.
func (c *core) row(u int) (via []model.Event, to []int32, ok bool) {
	i := u - c.rowBase
	if i < 0 || i+1 >= len(c.g.SuccStart) {
		return nil, nil, false
	}
	a, b := c.g.SuccStart[i], c.g.SuccStart[i+1]
	return c.g.SuccVia[a:b], c.g.SuccTo[a:b], true
}

// rowTarget returns the node that e leads to from node u, by u's row.
func (c *core) rowTarget(u int, e model.Event) (int32, bool) {
	if via, to, ok := c.row(u); ok {
		if i := findEvent(via, e); i >= 0 {
			return to[i], true
		}
	}
	return 0, false
}

// findEvent returns the index of e in a row's events, or -1.
func findEvent(row []model.Event, e model.Event) int {
	for i := range row {
		if row[i].Msg == e.Msg && row[i].P == e.P {
			return i
		}
	}
	if e.Msg != nil {
		for i := range row {
			if r := row[i]; r.P == e.P && r.Msg != nil && *r.Msg == *e.Msg {
				return i
			}
		}
	}
	return -1
}

// dropRowsBefore discards the rows of nodes before u, sliding the kept
// ones to the front of the columns so a walk without edges holds two
// levels of rows however long it runs.
func (c *core) dropRowsBefore(u int) {
	k := u - c.rowBase
	if k <= 0 {
		return
	}
	off := c.g.SuccStart[k]
	c.g.SuccTo = c.g.SuccTo[:copy(c.g.SuccTo, c.g.SuccTo[off:])]
	c.g.SuccVia = c.g.SuccVia[:copy(c.g.SuccVia, c.g.SuccVia[off:])]
	c.g.SuccStart = c.g.SuccStart[:copy(c.g.SuccStart, c.g.SuccStart[k:])]
	for i := range c.g.SuccStart {
		c.g.SuccStart[i] -= off
	}
	c.rowBase = u
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
// and reports whether u's successor list was taken in full, closing u's
// row when it was. The budget rule is the one policy that depends on what
// the walk keeps. Without edges, first-seen configurations are admitted
// until the ledger is full and the rest of the list is dropped. With edges
// a half-recorded row would be unusable, so a node whose distinct fresh
// successors do not all fit is not merged at all; counting them costs a
// pre-scan, which runs only when the raw successor count could overflow.
//
// Targets expand left to a sibling inside the chunk are settled first: that
// sibling's row closed earlier in this id-ordered merge. One that still
// does not list u's tree event is stepped here instead, in sc.
func (c *core) merge(u int, succs []cand, led *Ledger, sc *scratch) bool {
	for i := range succs {
		if s := &succs[i]; s.cfg == nil && s.to < 0 {
			if to, ok := c.rowTarget(int(^s.to), c.g.ParentVia[u]); ok {
				s.to = to
			} else if st, ok := c.step(sc, c.cfgs[u], s.via); ok {
				*s = st
			}
		}
	}
	if c.edges && len(c.cfgs)+len(succs) > led.MaxConfigs && len(c.cfgs)+c.freshAmong(succs) > led.MaxConfigs {
		led.Truncated = true
		return false
	}
	for _, s := range succs {
		id := s.to
		if s.cfg != nil {
			var known bool
			if id, known = c.lookup(s.cfg); !known {
				if !led.Admit() {
					return false
				}
				id = int32(len(c.cfgs))
				c.admit(s.cfg, int32(u), s.via)
			}
		} else if id < 0 {
			continue // the step above found a no-op
		}
		// Edges to already-admitted configurations are recorded too:
		// valency is a reachability property, and the breadth-first tree
		// alone does not carry cross-edge reachability.
		c.g.SuccTo = append(c.g.SuccTo, id)
		c.g.SuccVia = append(c.g.SuccVia, s.via)
	}
	c.g.SuccStart = append(c.g.SuccStart, int32(len(c.g.SuccTo)))
	return true
}

// freshAmong counts the distinct configurations in succs not yet admitted
// — the budget cost of expanding their node — without admitting anything.
// Entries the diamond rule resolved name admitted nodes and cost nothing.
func (c *core) freshAmong(succs []cand) int {
	fresh := 0
	for i := range succs {
		if succs[i].cfg == nil {
			continue
		}
		if _, known := c.lookup(succs[i].cfg); known {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if succs[j].cfg != nil && succs[j].cfg.Equal(succs[i].cfg) {
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
