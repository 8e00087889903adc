package explore

import (
	"fmt"
	"testing"
)

// TestCrashSubsetsOrder pins the outer loop of the probe's run family:
// subsets by size, each size in lexicographic order, never the full set.
func TestCrashSubsetsOrder(t *testing.T) {
	for _, tc := range []struct {
		n, maxCrash int
		want        string
	}{
		{3, 1, "[[] [0] [1] [2]]"},
		{4, 2, "[[] [0] [1] [2] [3] [0 1] [0 2] [0 3] [1 2] [1 3] [2 3]]"},
		{2, 5, "[[] [0] [1]]"},
		{1, 1, "[[]]"},
	} {
		if got := fmt.Sprint(crashSubsets(tc.n, tc.maxCrash)); got != tc.want {
			t.Errorf("crashSubsets(%d, %d) = %s, want %s", tc.n, tc.maxCrash, got, tc.want)
		}
	}
}
