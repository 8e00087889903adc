package distexplore

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// TestSparesHandOn: a spare put on one goroutine is taken on another, newest
// first and once; it survives collections; the list holds no more spares
// than owners were ever alive at once, and what it does not keep — a spare
// over that bound, or a spare its owner took and put back as nil — is the
// collector's. Owners on eight goroutines at once leave none counted live.
func TestSparesHandOn(t *testing.T) {
	var s spares[clusterMem]
	if s.get() != nil || s.get() != nil {
		t.Fatal("an empty list handed out a spare")
	}
	a, b := new(clusterMem), new(clusterMem)
	s.put(a) // the two owners stop
	s.put(b)
	runtime.GC()
	runtime.GC()
	got := make(chan *clusterMem)
	for i, want := range []*clusterMem{b, a, nil} {
		go func() { got <- s.get() }()
		if p := <-got; p != want {
			t.Fatalf("get %d on another goroutine after two collections returned %p, want %p", i+1, p, want)
		}
	}
	// Three owners are alive: the peak is 3.
	for range 3 {
		s.put(new(clusterMem))
	}
	over := new(clusterMem)
	dropped := weak.Make(over)
	s.put(over) // a put with no get: one owner, but not a fourth at once
	over = nil
	for range 4 {
		s.put(new(clusterMem))
	}
	if len(s.free) != 3 || s.peak != 3 {
		t.Fatalf("the list keeps %d spares for a peak of %d owners, want 3 and 3", len(s.free), s.peak)
	}
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("a spare over the peak survived a collection")
	}
	taken := weak.Make(s.get())
	s.put(nil) // its owner outgrew what a spare may hold
	runtime.GC()
	if taken.Value() != nil {
		t.Fatal("a spare its owner put back as nil survived a collection")
	}

	var u spares[clusterMem]
	u.put(a) // a put with no get counts as one owner
	if p := u.get(); p != a {
		t.Fatalf("a spare put with no get before it was not kept: got %p, want %p", p, a)
	}

	var c spares[clusterMem]
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				p := c.get()
				if p == nil {
					p = new(clusterMem)
				}
				c.put(p)
			}
		}()
	}
	wg.Wait()
	if c.live != 0 || c.peak > 8 || len(c.free) > c.peak {
		t.Fatalf("8 goroutines taking and putting back left %d owners live, a peak of %d and %d spares", c.live, c.peak, len(c.free))
	}
}

// TestSparesDropAnOutgrownWorker: a drained Worker whose last job admitted
// more than keepNodes configurations leaves no spare behind, as a run that
// admitted that many leaves its columns to the collector; one whose job was
// small leaves its memory for the next Worker.
func TestSparesDropAnOutgrownWorker(t *testing.T) {
	for _, c := range []struct {
		budget int
		kept   bool
	}{{400, true}, {keepNodes + 1, false}} {
		oc := startOwned(t, NewLoopback(), []string{"k0"}, failoverOptions())
		task := Task{Protocol: "paxos", N: 3, Inputs: model.AlternatingInputs(3), Shards: 1,
			Options: explore.Options{MaxConfigs: c.budget}}
		_, visited, err := oc.Explore(task, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := oc.workers[0].mem
		admitted := m.visited.Len()
		oc.stop()
		workerMems.mu.Lock()
		kept := slices.Contains(workerMems.free, m)
		workerMems.mu.Unlock()
		if kept != c.kept {
			t.Errorf("a worker whose job admitted %d configurations (%d visited, keepNodes %d) left a spare: %v, want %v",
				admitted, visited, keepNodes, kept, c.kept)
		}
	}
}

// emptySpares drops every spare the three lists hold, so what runs next
// starts cold.
func emptySpares() {
	clusterMems.drop()
	workerMems.drop()
	connPayloads.drop()
}

func (s *spares[T]) drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = nil
}
