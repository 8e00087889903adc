package distexplore

import (
	"sync"
	"weak"
)

// spares hands the memory an owner worked in — a Cluster's, a Worker's, a
// worker connection's — to the next owner of its kind to start in the
// process, on any goroutine: a cluster dialled for one job, a worker or
// connection that replaces a stopped one, starts as warm as a long-lived
// one. An owner takes once, when it first needs the memory, and puts back
// when it stops: per lifetime, not per job, so a live owner keeps what it
// grew for as long as it lives, as it always did.
//
// spares holds what it is given weakly: memory no owner takes before the
// next collection is the collector's, so a process that stops owners and
// starts none keeps nothing. A sync.Pool would keep it one collection
// longer, but hands an item to another processor only from its shared
// list; a lone item sits in the private slot of the processor that put it,
// and a successor that happens to start on another one misses it.
type spares[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// get returns the newest spare the collector has left, or nil.
func (s *spares[T]) get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.free) > 0 {
		p := s.free[len(s.free)-1].Value()
		s.free = s.free[:len(s.free)-1]
		if p != nil {
			return p
		}
	}
	return nil
}

// put hands p on; its owner must not touch it again. Entries the collector
// has emptied are dropped first, so the list stays as long as the number of
// spares alive.
func (s *spares[T]) put(p *T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.free[:0]
	for _, w := range s.free {
		if w.Value() != nil {
			live = append(live, w)
		}
	}
	clear(s.free[len(live):])
	s.free = append(live, weak.Make(p))
}
