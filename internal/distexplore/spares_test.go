package distexplore

import (
	"runtime"
	"testing"
)

// TestSparesHandOn: a spare put on one goroutine is taken on another, once,
// newest first; the collector takes what nobody did.
func TestSparesHandOn(t *testing.T) {
	var s spares[clusterMem]
	a, b := new(clusterMem), new(clusterMem)
	s.put(a)
	s.put(b)
	got := make(chan *clusterMem)
	for range 2 {
		go func() { got <- s.get() }()
		if p := <-got; p != b {
			t.Fatalf("get on another goroutine returned %p, want the newest spare %p", p, b)
		}
		b = a
	}
	if p := s.get(); p != nil {
		t.Fatalf("a spare was handed out twice: %p", p)
	}
	s.put(new(clusterMem))
	runtime.GC()
	if p := s.get(); p != nil {
		t.Fatal("a spare nobody took survived a collection")
	}
	for range 4 {
		s.put(new(clusterMem))
	}
	runtime.GC()
	s.put(a)
	if len(s.free) != 1 {
		t.Fatalf("the list keeps %d entries for 1 spare alive", len(s.free))
	}
	runtime.KeepAlive(a)
}
