package explore_test

// Explorations walk on recycled tables (core.go's tables): a finished
// ExploreFiltered hands its node table, index, rows and scratch to the
// next one. These tests hold every exploration that follows another —
// back to back, nested, after a panic, after a table too large to keep,
// and eight at once — to the reference loop, and the one path func a walk
// hands its visits to Visit's contract.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// caseNamed returns the oracle's case called name.
func caseNamed(t *testing.T, name string) enginetest.Case {
	t.Helper()
	for _, c := range enginetest.Cases(t) {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("the case table has no %q", name)
	return enginetest.Case{}
}

// pathPanic calls path and returns what it panicked with, or nil.
func pathPanic(path func() model.Schedule) (v any) {
	defer func() { v = recover() }()
	path()
	return nil
}

// TestVisitPathOnlyDuringVisit holds the one path func a walk hands every
// visit to Visit's contract: called inside its visit it answers the
// reference's schedule, and kept past its visit — after the walk ran to
// its end, or after a visit stopped it — it panics instead of reading a
// table that may already serve another exploration.
func TestVisitPathOnlyDuringVisit(t *testing.T) {
	whole := caseNamed(t, "paxos-budget400")
	stopped := whole
	stopped.StopAt = 57
	const msg = "explore: path called outside its visit"
	for _, c := range []enginetest.Case{whole, stopped} {
		pr, root := c.MustResolve(t)
		want, err := enginetest.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			opt := c.Options
			opt.Workers = w
			var kept func() model.Schedule
			got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
				complete, visited := explore.Explore(pr, root, opt, nil, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
					kept = path
					return visit(cfg, depth, path) // Record calls path inside the visit
				})
				return complete, visited, nil
			})
			if err == nil {
				err = enginetest.DiffStreams(want, got)
			}
			if err != nil {
				t.Fatalf("workers=%d stopAt=%d: %v", w, c.StopAt, err)
			}
			if v := pathPanic(kept); v != msg {
				t.Fatalf("workers=%d stopAt=%d: a path kept past its visit answered (panic %v), want panic %q", w, c.StopAt, v, msg)
			}
		}
	}
}

// recycledRun is one exploration of TestExploreRecycledTables: an oracle
// case at a worker count, with Lemma 2's p-free filter when pFree is set,
// and another run explored inside every nestEvery-th of its visits when
// nest is set.
type recycledRun struct {
	c         enginetest.Case
	pFree     *model.PID
	nest      *recycledRun
	nestEvery int
	pr        model.Protocol
	root      *model.Config
	ref       enginetest.Stream
}

func (r *recycledRun) name() string {
	s := fmt.Sprintf("%s/workers=%d", r.c.Name, r.c.Options.Workers)
	if r.pFree != nil {
		s += fmt.Sprintf("/p%d-free", *r.pFree)
	}
	if r.nest != nil {
		s += "/nesting " + r.nest.name()
	}
	return s
}

func (r *recycledRun) skip() func(model.Event) bool {
	if r.pFree != nil {
		p := *r.pFree
		return func(e model.Event) bool { return e.P == p }
	}
	return explore.AvoidFilter(r.c.Avoid)
}

// prepare resolves r and takes its reference stream.
func (r *recycledRun) prepare(t *testing.T) {
	t.Helper()
	r.pr, r.root = r.c.MustResolve(t)
	var err error
	if r.pFree == nil {
		r.ref, err = enginetest.Reference(r.c)
	} else {
		r.ref, err = enginetest.Record(r.c.StopAt, func(visit explore.Visit) (bool, int, error) {
			complete, visited := explore.ReferenceExplore(r.pr, r.root, r.c.Options, r.skip(), visit)
			return complete, visited, nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// check explores r and returns the first place its stream, or a nested
// run's, departs from the reference.
func (r *recycledRun) check() error {
	var nestErr error
	visits := 0
	got, err := enginetest.Record(r.c.StopAt, func(visit explore.Visit) (bool, int, error) {
		complete, visited := explore.ExploreFiltered(r.pr, r.root, r.c.Options, r.skip(), func(cfg *model.Config, depth int, path func() model.Schedule) bool {
			if visits++; r.nest != nil && visits%r.nestEvery == 0 && nestErr == nil {
				nestErr = r.nest.check() // Record reads this visit's path after the nested walk
			}
			return visit(cfg, depth, path)
		})
		return complete, visited, nil
	})
	if err == nil {
		err = nestErr
	}
	if err == nil {
		err = enginetest.DiffStreams(r.ref, got)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.name(), err)
	}
	return nil
}

// recycledRuns returns the explorations TestExploreRecycledTables runs back
// to back, in an order where each differs from the one before in protocol
// or N, filter, budget, workers, a stop, or nesting. The walk past the keep
// cap comes last; big marks it.
func recycledRuns(t *testing.T) (runs []*recycledRun, big *recycledRun) {
	at := func(name string, workers int) *recycledRun {
		c := caseNamed(t, name)
		c.Options.Workers = workers
		return &recycledRun{c: c}
	}
	pFree := func(name string, workers int, p model.PID) *recycledRun {
		r := at(name, workers)
		r.pFree = &p
		return r
	}
	nested := at("benor-budget600", 2)
	nested.nest, nested.nestEvery = at("naivemajority-avoid-budget400", 4), 97
	runs = []*recycledRun{
		at("onethird4-budget1000", 4),
		at("naivemajority-avoid-budget400", 1),
		at("paxos-budget400", 2),
		pFree("naivemajority-budget137", 4, 0),
		at("naivemajority-stop40", 2),
		at("3pc-budget2000", 1),
		nested,
		at("naivemajority4-budget60", 4),
		pFree("paxos-budget400", 1, 1),
		at("gen5-depth3-budget250", 2),
		at("trivial0", 1),
	}
	big = &recycledRun{c: enginetest.Case{Name: "paxos-budget20000", Protocol: "paxos", N: 3,
		Inputs: model.Inputs{0, 1, 1}, Options: explore.Options{MaxConfigs: 20000, Workers: 2}}}
	for _, r := range append(runs, nested.nest, big) {
		r.prepare(t)
	}
	return runs, big
}

// explodes explores panicProto until it panics, at the given worker count,
// and reports whether it did.
func explodes(workers int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	pr := &panicProto{n: 2, boomAt: 4}
	explore.Explore(pr, model.MustInitial(pr, model.Inputs{0, 0}), explore.Options{Workers: workers}, nil, nil)
	return false
}

// TestExploreRecycledTables runs explorations back to back on recycled
// tables and holds each stream to the reference loop's, so nothing one
// exploration leaves in a table — a configuration, a row, an index slot, a
// successor buffer, the last step's draft — reaches the next one: not
// after a different protocol, filter, budget or worker count, not after a
// visit stopped early, not after a protocol panicked mid-walk, not after a
// walk whose table was too large to keep, and not from inside another
// exploration's visit, the way the adversary's stage search reaches
// Cache.Classify. Then eight goroutines explore at once.
func TestExploreRecycledTables(t *testing.T) {
	runs, big := recycledRuns(t)
	t.Run("back-to-back", func(t *testing.T) {
		for round := 0; round < 2; round++ {
			for i, r := range runs {
				if err := r.check(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if i%4 == 3 && !explodes(1+i%3) {
					t.Fatal("panicproto did not panic")
				}
			}
		}
		if err := big.check(); err != nil {
			t.Fatal(err)
		}
		for _, r := range runs[len(runs)-3:] {
			if err := r.check(); err != nil {
				t.Fatalf("after the walk past the keep cap: %v", err)
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range runs {
					if err := runs[(g+i)%len(runs)].check(); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
