package explore

import (
	"sync"
	"sync/atomic"

	"github.com/flpsim/flp/internal/model"
)

// succPool recycles the per-level allocations of the level-synchronous
// engines: the outer successor-list slice (one slot per frontier node) and
// the per-node successor buffers. One pool serves one exploration, owned by
// the coordinator; buffers are handed out before a level's workers start
// and taken back after the level is merged, so no worker ever touches the
// free list concurrently. In steady state a level costs zero successor
// allocations beyond frontier growth itself.
type succPool struct {
	exps [][]Successor // level-indexed scratch, reused every level
	free [][]Successor // recycled successor buffers, len 0, cap > 0
}

// level returns a successor-list slice of length n with recycled buffers
// pre-distributed into its slots (nil where the free list ran dry —
// AppendSuccessors grows those into fresh buffers that future levels then
// recycle). The slice aliases the pool's scratch: it is valid until the
// next level call, which is exactly the coordinator's merge window.
func (p *succPool) level(n int) [][]Successor {
	if cap(p.exps) < n {
		p.exps = make([][]Successor, n)
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
func (p *succPool) recycle(out [][]Successor) {
	for i, s := range out {
		out[i] = nil
		if cap(s) == 0 {
			continue
		}
		s = s[:cap(s)]
		for j := range s {
			s[j] = Successor{}
		}
		p.free = append(p.free, s[:0])
	}
}

// expandLevel expands every configuration of one breadth-first level on a
// pool of workers and returns the successor lists indexed like level.
// Expansion is pure, so the only coordination is work distribution: an
// atomic cursor hands out node indices, which keeps fast workers busy when
// node costs are uneven. Each slot of the returned slice carries a
// recycled buffer from p that AppendSuccessors appends into; the caller
// must hand the slice back with p.recycle once merged.
//
// A panic in any worker (a protocol contract violation surfacing through
// MustApply) is re-raised on the caller's goroutine once the pool has
// drained. When several nodes of the level panic, the one at the lowest
// frontier index is re-raised — the node the sequential engine would have
// reached first — so the surfaced failure is byte-identical at every
// worker count.
func expandLevel(pr model.Protocol, skip func(model.Event) bool, level []*model.Config, workers int, p *succPool) [][]Successor {
	out := p.level(len(level))
	if len(level) == 1 {
		out[0] = AppendSuccessors(pr, level[0], skip, out[0])
		return out
	}
	if workers > len(level) {
		workers = len(level)
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
				if i >= len(level) {
					return
				}
				cur = i
				out[i] = AppendSuccessors(pr, level[i], skip, out[i])
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
