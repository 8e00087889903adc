package explore_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// panicProto is a two-process protocol whose Step panics once a process
// has taken boomAt steps. At the breadth-first level just below the
// threshold, several frontier nodes panic during expansion — one per
// process — which is exactly the situation the engines must surface
// deterministically: the panic of the lowest-index frontier node (the one
// the sequential engine reaches first) must win at every worker count.
type panicProto struct {
	n      int
	boomAt int
}

type panicState struct{ steps int }

func (s panicState) Key() string          { return fmt.Sprintf("s%d", s.steps) }
func (s panicState) Output() model.Output { return model.None }

func (p *panicProto) Name() string { return "panicproto" }
func (p *panicProto) N() int       { return p.n }
func (p *panicProto) Init(model.PID, model.Value) model.State {
	return panicState{}
}
func (p *panicProto) Step(pid model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	next := s.(panicState).steps + 1
	if next >= p.boomAt {
		panic(fmt.Sprintf("panicproto: p%d reached %d steps", pid, next))
	}
	return panicState{steps: next}, nil
}

// TestExpandLevelPanicDeterminism pins the re-raise rule of the parallel
// expansion pool: when multiple nodes of one level panic, the surfaced
// panic value is the one the reference loop hits first, regardless of
// worker count or scheduling — for every caller of the level-synchronous
// core, whose inline (one worker) and pooled expansion must agree with each
// other and with ReferenceExplore. At the deeper thresholds the panicking
// level's nodes have siblings, so the core reads part of their rows off
// closed rows instead of stepping: a step it skips must not be the one that
// would have panicked first. The test sets GOMAXPROCS to 8 for its length,
// so that a walk at 8 workers has seven helpers.
func TestExpandLevelPanicDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, boomAt := range []int{2, 3, 4} {
		pr := &panicProto{n: 2, boomAt: boomAt}
		c := model.MustInitial(pr, model.Inputs{0, 0})

		// At the level just below the threshold the frontier holds every
		// split of boomAt-1 steps between the two processes; expanding its
		// first and last node pushes a process over, so several nodes panic.
		engines := []struct {
			name string
			run  func(workers int)
		}{
			{"Explore", func(w int) { explore.Explore(pr, c, explore.Options{Workers: w}, nil, nil) }},
			{"BuildAtlas", func(w int) { explore.BuildAtlas(pr, c, explore.Options{Workers: w}) }},
			{"split Extend", func(w int) {
				// Level d holds d+1 nodes, so this budget is one short of
				// the configurations within boomAt-1 steps: the first call
				// stops at the last node of the level before, whose
				// successors do not fit, and panics nowhere.
				b := explore.NewAtlasBuilder(pr, c)
				b.Extend(explore.Options{Workers: w, MaxConfigs: boomAt*(boomAt+1)/2 - 1})
				b.Extend(explore.Options{Workers: w})
			}},
		}
		recovered := func(run func()) (v interface{}) {
			defer func() { v = recover() }()
			run()
			return nil
		}
		want := fmt.Sprintf("panicproto: p0 reached %d steps", boomAt)
		if ref := recovered(func() { explore.ReferenceExplore(pr, c, explore.Options{}, nil, nil) }); ref != want {
			t.Fatalf("boomAt=%d: the reference loop surfaced %v, want %q", boomAt, ref, want)
		}
		for _, eng := range engines {
			for _, w := range []int{1, 2, 8} {
				for trial := 0; trial < 20; trial++ { // panic selection must not depend on scheduling
					if got := recovered(func() { eng.run(w) }); got != want {
						t.Fatalf("boomAt=%d, %s workers=%d trial %d: surfaced panic %v, the reference loop surfaced %q",
							boomAt, eng.name, w, trial, got, want)
					}
				}
			}
		}
	}
}

// TestPoolHelpers holds the pool's helpers — process-wide goroutines every
// pooled walk shares, not goroutines of one level — to three promises:
// they survive the protocol panics they recover, walks leave no goroutine
// behind but the helpers (at most GOMAXPROCS−1 = 7 of them here), and a
// walk after the panics still equals the reference loop. The panicking
// walks run at 2 workers, which enlist one helper, and at 8, which enlist
// seven; the test sets GOMAXPROCS to 8 for its length, since a walk
// enlists no more helpers than the processors beside its own.
func TestPoolHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	before := runtime.NumGoroutine()
	for _, w := range []int{2, 8, 2, 8} {
		for trial := 0; trial < 10; trial++ {
			if !explodes(w) {
				t.Fatalf("workers=%d: panicproto did not panic", w)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before+7 {
		t.Fatalf("%d goroutines after the panicking walks, %d before: more than 7 helpers, or a walk leaked", after, before)
	}
	c := enginetest.Case{Name: "naivemajority3-workers8", Protocol: "naivemajority", N: 3,
		Inputs: model.Inputs{0, 1, 1}, Options: explore.Options{Workers: 8}}
	pr, root := c.MustResolve(t)
	want, err := enginetest.Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
		complete, visited := explore.Explore(pr, root, c.Options, nil, visit)
		return complete, visited, nil
	})
	if err == nil {
		err = enginetest.DiffStreams(want, got)
	}
	if err != nil {
		t.Fatalf("after the panicking walks: %v", err)
	}
}

// TestHelpersBounded holds the helpers to the processors, whatever Workers
// asks for: a walk (Explore), an atlas build (BuildAtlas) and a root loop
// (CensusInitial) at Workers: 64 under GOMAXPROCS 2 leave at most one
// helper beyond the goroutines before them, where they once left up to one
// fewer than the widest chunk or root count, and each still answers as the
// reference loop (the census as at one worker).
func TestHelpersBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := enginetest.Case{Name: "naivemajority3-workers64", Protocol: "naivemajority", N: 3,
		Inputs: model.Inputs{0, 1, 1}, Options: explore.Options{Workers: 64}}
	pr, root := c.MustResolve(t)
	want, err := enginetest.Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := explore.CensusInitial(pr, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	walks := map[string]func(explore.Visit) (bool, int, error){
		"Explore": func(visit explore.Visit) (bool, int, error) {
			complete, visited := explore.Explore(pr, root, c.Options, nil, visit)
			return complete, visited, nil
		},
		"BuildAtlas": func(visit explore.Visit) (bool, int, error) {
			a, ok := explore.BuildAtlas(pr, root, c.Options)
			if !ok {
				return false, 0, fmt.Errorf("BuildAtlas refused naivemajority(3)")
			}
			return enginetest.WalkAtlas(pr, c.Options, a, 1, visit)
		},
	}
	for name, walk := range walks {
		got, err := enginetest.Record(c.StopAt, walk)
		if err == nil {
			err = enginetest.DiffStreams(want, got)
		}
		if err != nil {
			t.Fatalf("%s at 64 workers: %v", name, err)
		}
	}
	if got, err := explore.CensusInitial(pr, c.Options); err != nil || !reflect.DeepEqual(got, seq) {
		t.Fatalf("CensusInitial at 64 workers: %+v (%v), want %+v", got, err, seq)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Fatalf("%d goroutines after the calls at 64 workers, %d before: more helpers than GOMAXPROCS−1, or a call leaked", after, before)
	}
}

// TestOptionsNormalized pins the budget contract every engine relies on:
// the MaxConfigs default.
func TestOptionsNormalized(t *testing.T) {
	cases := []struct {
		name string
		in   explore.Options
		want explore.Options
	}{
		{"zero", explore.Options{},
			explore.Options{MaxConfigs: explore.DefaultMaxConfigs}},
		{"negative-budget-defaulted", explore.Options{MaxConfigs: -1},
			explore.Options{MaxConfigs: explore.DefaultMaxConfigs}},
		{"kept", explore.Options{MaxConfigs: 42, Workers: 5},
			explore.Options{MaxConfigs: 42, Workers: 5}},
	}
	for _, tc := range cases {
		if got := tc.in.Normalized(); got != tc.want {
			t.Errorf("%s: Normalized() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
