package atlasstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestShelfLocksShrink pins the per-path lock table's lifetime: an entry
// exists only while its path is held or waited for, so a store that has
// touched 1,000 files and holds none remembers none. Every fourth path is
// contended by two goroutines, each incrementing a plain counter under the
// lock 50 times — under -race that is the mutual-exclusion check, and a
// waiter arriving while the holder releases must find the same mutex.
func TestShelfLocksShrink(t *testing.T) {
	s, err := openShelf(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	const paths, rounds = 1000, 50
	holders := func(i int) int {
		if i%4 == 0 {
			return 2
		}
		return 1
	}
	counts := make([]int, paths)
	var wg sync.WaitGroup
	for i := 0; i < paths; i++ {
		path := fmt.Sprintf("p%d", i)
		for h := 0; h < holders(i); h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					unlock := s.lock(path)
					counts[i]++
					unlock()
				}
			}()
		}
	}
	wg.Wait()
	for i, n := range counts {
		if want := rounds * holders(i); n != want {
			t.Fatalf("path %d: %d increments under its lock, want %d", i, n, want)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.locks) != 0 {
		t.Fatalf("%d lock entries left with no holder, want 0", len(s.locks))
	}
}
