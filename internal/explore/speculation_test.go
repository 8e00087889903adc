package explore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// TestSpeculationBoundedByOneChunk pins the level path's speculation to
// the ledger. At budgets that cut a level in the middle, the pooled walk
// may step the protocol more often than the sequential oracle only by the
// nodes of one chunk it expanded and then had to discard: at most the
// largest chunk SpecChunk cuts once the budget level is reached (its first
// one — room only shrinks from there) times the most events any visited
// node has. Expanding the whole level first, as walk once did, overshoots
// this bound several times over at the larger budgets.
func TestSpeculationBoundedByOneChunk(t *testing.T) {
	for _, k := range []struct {
		name string
		n    int
	}{{"naivemajority", 4}, {"paxos", 3}} {
		factory, ok := protocols.Lookup(k.name)
		if !ok {
			t.Fatalf("protocol %q not registered", k.name)
		}
		base, err := factory(k.n)
		if err != nil {
			t.Fatal(err)
		}
		in := make(model.Inputs, k.n)
		for p := range in {
			in[p] = model.Value(p & 1)
		}
		for _, budget := range []int{60, 400, 1000} {
			t.Run(fmt.Sprintf("%s%d@%d", k.name, k.n, budget), func(t *testing.T) {
				var steps atomic.Int64
				pr := modeltest.StepCounter{Protocol: base, Steps: &steps}
				root := model.MustInitial(pr, in)

				// The oracle run also yields the shape of the level the
				// budget cuts: lo nodes were expanded before it and count
				// admitted when its first chunk is sized.
				var depths []int
				maxEvents := 0
				complete, _ := Explore(pr, root, Options{MaxConfigs: budget, Workers: 1}, nil,
					func(c *model.Config, depth int, _ func() model.Schedule) bool {
						depths = append(depths, depth)
						maxEvents = max(maxEvents, len(model.Events(c)))
						return false
					})
				sequential := steps.Load()
				if complete || len(depths) != budget {
					t.Fatalf("budget %d does not cut the exploration (visited %d, complete=%v)", budget, len(depths), complete)
				}
				cut := depths[len(depths)-1] - 1
				lo, count := 0, 0
				for _, d := range depths {
					if d < cut {
						lo++
					}
					if d <= cut {
						count++
					}
				}

				for _, w := range []int{2, 8} {
					steps.Store(0)
					Explore(pr, root, Options{MaxConfigs: budget, Workers: w}, nil, nil)
					chunk := SpecChunk(count-lo, budget-count, lo, count, w)
					if got, limit := steps.Load(), sequential+int64(chunk*maxEvents); got > limit {
						t.Errorf("workers=%d: %d protocol steps, sequential %d + one chunk (%d nodes × %d events) = %d",
							w, got, sequential, chunk, maxEvents, limit)
					}
				}
			})
		}
	}
}

// TestSpecChunk pins the chunk rule itself: the whole remainder while the
// budget is far, the budget's room over the admission rate when it is
// near, never below a few nodes per worker, never past the level.
func TestSpecChunk(t *testing.T) {
	for _, tc := range []struct {
		remaining, room, expanded, count, workers, want int
	}{
		{1, 999, 0, 1, 2, 1},                     // the root: nothing expanded yet
		{500, 100000, 100, 400, 2, 500},          // budget far: the whole level
		{500, 400, 100, 400, 2, 100},             // 4 admissions a node, room for 100 nodes
		{500, 400, 100, 400, 64, 256},            // floored at 4 nodes a worker
		{500, 3, 400, 900, 2, 8},                 // nearly full: the floor
		{5, 3, 400, 900, 2, 5},                   // the floor is capped by the level
		{500, 1 << 62, 1 << 40, 1 << 41, 2, 500}, // no overflow at huge bounds
	} {
		if got := SpecChunk(tc.remaining, tc.room, tc.expanded, tc.count, tc.workers); got != tc.want {
			t.Errorf("SpecChunk(%d, %d, %d, %d, %d) = %d, want %d",
				tc.remaining, tc.room, tc.expanded, tc.count, tc.workers, got, tc.want)
		}
	}
}
