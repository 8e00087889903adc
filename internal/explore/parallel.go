package explore

import (
	"sync"
	"sync/atomic"
)

// candPool recycles the per-level allocations of the level-synchronous
// engines: the outer successor-list slice (one slot per frontier node) and
// the per-node successor buffers. One pool serves one core at a time (its
// walkMem), owned by the coordinator; buffers are handed out before a
// level's workers start and taken back after the level is merged, so no
// worker ever touches the free list concurrently. In steady state a level
// costs zero successor allocations beyond frontier growth itself.
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

// expandLevel expands nodes [lo, hi) of one breadth-first level on a pool
// of workers and returns their successor lists, indexed from lo. Expansion
// is pure and reads only the table as it stood before the chunk — rows
// before lo, configurations and the index included, none of which the
// coordinator touches until every worker is done — so the only
// coordination is work distribution: an atomic cursor hands out nodes,
// which keeps fast workers busy when node costs are uneven. Each slot of the returned slice carries a recycled buffer from c.mem.pool
// that expand appends into; the caller must hand the slice back with
// c.mem.pool.recycle once merged.
//
// A panic in any worker (a protocol contract violation surfacing through
// a step) is re-raised on the caller's goroutine once the pool has
// drained. When several nodes of the level panic, the one at the lowest
// frontier index is re-raised — the node the sequential engine would have
// reached first — so the surfaced failure is byte-identical at every
// worker count.
func (c *core) expandLevel(lo, hi, workers int) [][]cand {
	n := hi - lo
	out, scr := c.mem.pool.level(n), c.mem.scr
	if n == 1 {
		out[0] = c.expand(lo, lo, &scr[0], out[0])
		return out
	}
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	type workerPanic struct {
		index int // frontier index being expanded when the panic fired
		value any
	}
	panics := make([]*workerPanic, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					panics[w] = &workerPanic{index: cur, value: r}
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				cur = i
				out[i] = c.expand(lo+i, lo, &scr[w], out[i])
			}
		}(w)
	}
	wg.Wait()
	var first *workerPanic
	for _, p := range panics {
		if p != nil && (first == nil || p.index < first.index) {
			first = p
		}
	}
	if first != nil {
		panic(first.value)
	}
	return out
}
