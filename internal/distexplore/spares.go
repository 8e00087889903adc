package distexplore

import "sync"

// spares hands the memory an owner worked in — a Cluster's, a Worker's, a
// worker connection's — to the next owner of its kind to start in the
// process, on any goroutine, so a cluster dialled for one job, or a worker
// or connection that replaces a stopped one, starts as warm as a long-lived
// one. An owner takes once, when it first needs the memory (get), and puts
// back when it stops (put): a live owner keeps what it grew while it lives.
//
// Spares are held strongly, so a collection between a stop and the next
// start does not take them, and bounded twice: the list keeps at most as
// many as owners of its kind were ever alive at once (a put with no get
// before it counts as one), and memory that outgrew keepNodes is not handed
// on (run.release drops such columns; a Worker puts nil). A process keeps
// at most what its busiest moment held.
// A sync.Pool would empty at the second collection, and a successor on
// another processor misses a lone item in the putter's private slot.
type spares[T any] struct {
	mu         sync.Mutex
	free       []*T
	live, peak int // owners started and not stopped; the most at once
}

// get starts an owner and returns the newest spare, or nil.
func (s *spares[T]) get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live++
	s.peak = max(s.peak, s.live)
	n := len(s.free)
	if n == 0 {
		return nil
	}
	p := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return p
}

// put stops an owner and hands p on, unless p is nil or the list already
// holds one spare per owner of the peak; the owner must not touch p again.
func (s *spares[T]) put(p *T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = max(s.live-1, 0)
	s.peak = max(s.peak, 1) // this owner was alive, got or not
	if p != nil && len(s.free) < s.peak {
		s.free = append(s.free, p)
	}
}
