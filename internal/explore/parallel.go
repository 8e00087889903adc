package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// candPool recycles the per-level allocations of the level-synchronous
// engines: the outer successor-list slice (one slot per frontier node) and
// the per-node successor buffers. One pool serves one core at a time (its
// walkMem), owned by the coordinator; buffers are handed out before a chunk
// is published to the helpers and taken back after it is merged, so no helper
// ever touches the free list. In steady state a level costs zero successor
// allocations beyond frontier growth itself.
type candPool struct {
	exps [][]cand // level-indexed scratch, reused every level
	free [][]cand // recycled successor buffers, len 0, cap > 0
}

// level returns a successor-list slice of length n with recycled buffers
// pre-distributed into its slots (nil where the free list ran dry — expand
// grows those into fresh buffers that future levels then recycle). The
// slice aliases the pool's scratch: it is valid until the next level call,
// which is exactly the coordinator's merge window.
func (p *candPool) level(n int) [][]cand {
	if cap(p.exps) < n {
		p.exps = make([][]cand, n)
	}
	out := p.exps[:n]
	for i := range out {
		if f := len(p.free) - 1; f >= 0 {
			out[i] = p.free[f]
			p.free = p.free[:f]
		} else {
			out[i] = nil
		}
	}
	return out
}

// recycle takes a merged level's buffers back, clearing every entry so
// recycled slots do not retain dead configurations across levels.
func (p *candPool) recycle(out [][]cand) {
	for i, s := range out {
		out[i] = nil
		if cap(s) == 0 {
			continue
		}
		s = s[:cap(s)]
		for j := range s {
			s[j] = cand{}
		}
		p.free = append(p.free, s[:0])
	}
}

// expandLevel expands nodes [lo, hi) of one breadth-first level and returns
// their successor lists, indexed from lo. The coordinator publishes the
// chunk as a levelJob to the walk's gang g (nil when it has none), whose
// members are already waiting for it, and then expands nodes of it too, in
// scratch slot 0; an atomic cursor hands out the nodes, which keeps fast
// expanders busy when node costs are uneven, and a chunk no member reached
// in time is simply expanded inline. Expansion is pure and reads only the
// table as it stood before the chunk — rows before lo, configurations and
// the index included, none of which the coordinator touches until every
// node is done — so the only coordination is that cursor and a count of
// finished nodes, which the coordinator waits on by yielding, not parking:
// once the cursor is spent it waits only for nodes a member has claimed,
// at most one node's expansion per member. Each slot of the returned slice
// carries a recycled buffer from c.mem.pool that expand appends into; the
// caller must hand the slice back with c.mem.pool.recycle once merged.
//
// A panic in any expansion (a protocol contract violation surfacing
// through a step) is re-raised on the caller's goroutine once every node
// is done. When several nodes of the level panic, the one at the lowest
// frontier index is re-raised — the node the sequential engine would have
// reached first — so the surfaced failure is byte-identical at every
// worker count. A member survives the panics it recovers.
func (c *core) expandLevel(lo, hi int, g *gang) [][]cand {
	n := hi - lo
	out, scr := c.mem.pool.level(n), c.mem.scr
	if n == 1 {
		out[0] = c.expand(lo, lo, &scr[0], out[0])
		return out
	}
	j := &levelJob{c: c, lo: lo, n: n, out: out, scr: scr}
	if g != nil {
		g.publish(j)
	}
	j.work(0)
	for j.done.Load() < int64(n) {
		runtime.Gosched()
	}
	if j.failed {
		panic(j.failure)
	}
	return out
}

// levelJob is one chunk of a level on its way through expandLevel: nodes
// [lo, lo+n) of c, handed out by cursor, expanded into out. Everything but
// the atomics and the failure is fixed before the job is published; the
// failure is written under mu before its node counts as done. A member
// that reaches the job after its last node was handed out touches only the
// atomics, so a job may outlive its chunk, its walk and its core.
type levelJob struct {
	c      *core
	lo, n  int
	out    [][]cand
	scr    []scratch    // c.mem.scr: slot 0 the coordinator's, 1… the members'
	cursor atomic.Int64 // nodes handed out
	done   atomic.Int64 // nodes expanded, or whose expansion panicked

	mu      sync.Mutex
	failed  bool
	failAt  int // the lowest node whose expansion panicked
	failure any
}

// work expands nodes of j in scratch slot s until none is left to hand
// out, going on past any expansion that panics.
func (j *levelJob) work(s int) {
	for j.drain(s) {
	}
}

// drain expands nodes of j in scratch slot s until none is left to hand
// out or an expansion panics, which it records and reports.
func (j *levelJob) drain(s int) (panicked bool) {
	cur := -1
	defer func() {
		if cur >= 0 {
			j.fail(cur, recover())
			panicked = true
		}
	}()
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= j.n {
			return false
		}
		cur = i
		j.out[i] = j.c.expand(j.lo+i, j.lo, &j.scr[s], j.out[i])
		cur = -1
		j.done.Add(1)
	}
}

// fail records that expanding node i panicked with v, keeping the lowest
// such node's value, and counts the node done.
func (j *levelJob) fail(i int, v any) {
	j.mu.Lock()
	if !j.failed || i < j.failAt {
		j.failed, j.failAt, j.failure = true, i, v
	}
	j.mu.Unlock()
	j.done.Add(1)
}

// A gang is the helpers of one walk: enlisted once, when the walk starts,
// each member keeps one scratch slot and stays, expanding every chunk the
// walk publishes and yielding between chunks, until the walk dismisses it.
// A walk has at most GOMAXPROCS−1 members, since one more would spin on
// its coordinator's P. Only the coordinator calls publish and dismiss.
type gang struct {
	places, offered int                      // helpers the walk may have, and has had
	joined          atomic.Int32             // members so far; each takes the next slot
	chunk           atomic.Pointer[levelJob] // the chunk to expand
	over            atomic.Bool              // dismissed
}

// enlist sizes m's scratch for a walk at the given worker count and offers
// a new gang to the idle helpers, or returns nil when it may have none.
func (m *walkMem) enlist(workers int) *gang {
	k := max(0, min(workers, runtime.GOMAXPROCS(0))-1)
	if len(m.scr) < 1+k {
		m.scr = append(m.scr, make([]scratch, 1+k-len(m.scr))...)
	}
	if k == 0 {
		return nil
	}
	enlisted.Add(1)
	g := &gang{places: k}
	g.offered = offer(g, k)
	return g
}

// publish hands j to the members and offers the gang again for the places
// no helper has taken yet.
func (g *gang) publish(j *levelJob) {
	g.chunk.Store(j)
	g.offered += offer(g, g.places-g.offered)
}

// dismiss ends the gang: a member leaves once its claimed nodes are done,
// and a helper that joins it later leaves at once.
func (g *gang) dismiss() {
	g.over.Store(true)
	enlisted.Add(-1)
}

// help is a member's stay in g: expand each chunk published, in the
// member's own scratch slot, until g is dismissed.
func (g *gang) help() {
	slot, last := int(g.joined.Add(1)), (*levelJob)(nil)
	for !g.over.Load() {
		if j := g.chunk.Load(); j != last {
			last = j
			j.work(slot)
		}
		runtime.Gosched()
	}
}

// A job is a walk's gang or a root loop's rootJob. A helper stays in it
// until its owner ends it, surviving its panics, then touches only atomics.
type job interface{ help() }

// The helpers are process-wide goroutines that work for every walk and
// every root loop: an idle one waits on helperJobs, unbuffered, so an
// offer reaches only a helper that is free at that moment. They start on
// first use, grow to the largest GOMAXPROCS−1 an offer ran under and never
// stop. enlisted counts the jobs offered and not yet ended by their owners.
var (
	helperJobs  = make(chan job)
	helperCount atomic.Int32
	helperGrow  sync.Mutex
	enlisted    atomic.Int32
)

// offer hands j to at most k idle helpers, starting helpers first if fewer
// than k exist, and returns at once with how many took it: helpers that
// are busy elsewhere, or not yet waiting, are skipped.
func offer(j job, k int) (took int) {
	if int(helperCount.Load()) < k {
		helperGrow.Lock()
		for int(helperCount.Load()) < k {
			helperCount.Add(1)
			go help()
		}
		helperGrow.Unlock()
	}
	for ; took < k; took++ {
		select {
		case helperJobs <- j:
		default:
			return took
		}
	}
	return took
}

// help is a helper's life: take a job, stay with it until its owner ends
// it, wait for the next.
func help() {
	for j := range helperJobs {
		j.help()
	}
}
