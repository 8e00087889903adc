package atlasstore_test

import (
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestStoreSuite runs the case table through the store, one fresh
// directory per case, two ways: built cold and persisted, or resumed from
// the truncated artifact a depth-2 Deepen wrote and persisted; either way a
// second process then answers from disk. Where the bounds refuse an atlas,
// the persisted artifact must refuse it too.
func TestStoreSuite(t *testing.T) {
	for _, way := range []string{"cold", "resumed"} {
		t.Run(way, func(t *testing.T) {
			enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
				if !c.Atlasable() {
					return false, 0, enginetest.ErrRefused
				}
				pr, root := c.MustResolve(t)
				dir := t.TempDir()
				shallowDone := false
				if way == "resumed" {
					shallow := c.Options
					shallow.MaxDepth = 2
					_, st, err := openStore(t, dir).Deepen(pr, root, shallow)
					if err != nil {
						t.Fatalf("Deepen to depth 2: %v", err)
					}
					shallowDone = st.Complete
				}
				first := openStore(t, dir)
				_, ok := first.GetAtlas(pr, root, c.Options)
				switch st := first.Stats(); {
				case !ok:
				case way == "cold" && (st.Misses != 1 || st.Hits != 0):
					t.Fatalf("cold build stats %+v, want one miss", st)
				case way == "resumed" && shallowDone && st.Hits != 1:
					t.Fatalf("stats %+v, want a hit: depth 2 exhausts the graph", st)
				case way == "resumed" && !shallowDone && st.Resumes != 1:
					t.Fatalf("stats %+v, want a resume from the depth-2 artifact", st)
				}
				reload := openStore(t, dir)
				a, reloaded := reload.GetAtlas(pr, root, c.Options)
				if st := reload.Stats(); reloaded != ok || ok && (st.Hits != 1 || st.Misses != 0) {
					t.Fatalf("built ok=%v; reloaded ok=%v with stats %+v, want the same answer from disk", ok, reloaded, st)
				}
				return enginetest.WalkAtlas(pr, c.Options, a, 1, visit)
			})
		})
	}
}

// TestStoreConcurrentLineage hammers one store with concurrent requests
// for several lineages — run under -race, this is the concurrency-safety
// check for the per-lineage locking and counters.
func TestStoreConcurrentLineage(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	dir := t.TempDir()
	s := openStore(t, dir)
	s.SetLog(nil)
	opt := explore.Options{MaxConfigs: testBudget}

	inputs := model.AllInputs(3)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				inp := inputs[(w+i)%len(inputs)]
				root := model.MustInitial(pr, inp)
				a, ok := s.GetAtlas(pr, root, opt)
				if !ok || a.Len() == 0 {
					errs <- "concurrent GetAtlas refused a buildable atlas"
					return
				}
				if !a.Root().Equal(root) {
					errs <- "concurrent GetAtlas returned the wrong lineage"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
