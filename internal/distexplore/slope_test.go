package distexplore

import (
	"fmt"
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// TestVisitedSlope pins the memory slope the cluster rests on: the visited
// set is split across the workers, not copied onto each. On a complete
// kernel every admitted key is interned on exactly the R workers of its
// shard, so the workers' visited slices sum to R × the visited count
// exactly, and one worker holds about R/W of the keys. Each worker's count
// is pinned, and its ratio to the one-worker count is logged beside R/W.
func TestVisitedSlope(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 6}
	want := map[[2]int][]int{ // (W, R) → keys per worker
		{1, 1}: {141},
		{2, 1}: {75, 66},
		{2, 2}: {141, 141},
		{3, 1}: {38, 46, 57},
		{3, 2}: {95, 84, 103},
	}
	one := 0
	for W := 1; W <= 3; W++ {
		for R := 1; R <= min(2, W); R++ {
			lb := NewLoopback()
			workers := make([]*Worker, W)
			var addrs []string
			for i := range workers {
				l, err := lb.Listen(fmt.Sprintf("slope%d", i))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				workers[i] = NewWorker(nil)
				go workers[i].Serve(l)
				addrs = append(addrs, l.Addr())
			}
			cl := dialCluster(t, lb, addrs, RPCOptions{})
			task.Replicas = R
			complete, visited, err := cl.Explore(task, nil)
			if err != nil || !complete {
				t.Fatalf("W=%d R=%d: complete=%v, %v", W, R, complete, err)
			}
			if one == 0 {
				one = visited
			}
			counts := make([]int, W)
			sum := 0
			for i, w := range workers {
				w.mu.Lock()
				counts[i] = w.visited.Len()
				w.mu.Unlock()
				sum += counts[i]
			}
			if sum != R*visited {
				t.Errorf("W=%d R=%d: the workers hold %d keys in all, want R × %d visited = %d", W, R, sum, visited, R*visited)
			}
			if pin := want[[2]int{W, R}]; !slices.Equal(counts, pin) {
				t.Errorf("W=%d R=%d: keys per worker %v, want %v", W, R, counts, pin)
			}
			for i, c := range counts {
				t.Logf("W=%d R=%d worker %d: %d keys, %.3f of the one-worker count (R/W = %.3f)",
					W, R, i, c, float64(c)/float64(one), float64(R)/float64(W))
			}
		}
	}
}
