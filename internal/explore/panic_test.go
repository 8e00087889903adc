package explore_test

import (
	"fmt"
	"testing"

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
// panic value is the one the sequential engine would have hit first,
// regardless of worker count or scheduling — for every caller of the
// level-synchronous core, whose inline (one worker) and pooled expansion
// must agree with each other and with the sequential Explore.
func TestExpandLevelPanicDeterminism(t *testing.T) {
	pr := &panicProto{n: 2, boomAt: 2}
	c := model.MustInitial(pr, model.Inputs{0, 0})

	// At level 1 the frontier is [(1 step, 0 steps), (0 steps, 1 step)];
	// expanding either node pushes a process to 2 steps, so both panic.
	engines := []struct {
		name string
		run  func(workers int)
	}{
		{"Explore", func(w int) { explore.Explore(pr, c, explore.Options{Workers: w}, nil, nil) }},
		{"BuildAtlas", func(w int) { explore.BuildAtlas(pr, c, explore.Options{Workers: w}) }},
		{"split Extend", func(w int) {
			b := explore.NewAtlasBuilder(pr, c)
			b.Extend(explore.Options{Workers: w, MaxDepth: 1}) // the root only: no panic yet
			b.Extend(explore.Options{Workers: w})
		}},
	}
	const want = "panicproto: p0 reached 2 steps"
	for _, eng := range engines {
		recovered := func(workers int) (v interface{}) {
			defer func() { v = recover() }()
			eng.run(workers)
			return nil
		}
		seq := recovered(1)
		if seq == nil {
			t.Fatalf("%s: one worker did not panic", eng.name)
		}
		if seq != want {
			t.Fatalf("%s: one worker surfaced %v, want %q", eng.name, seq, want)
		}
		for _, w := range []int{2, 8} {
			for trial := 0; trial < 20; trial++ { // panic selection must not depend on scheduling
				if got := recovered(w); got != seq {
					t.Fatalf("%s workers=%d trial %d: surfaced panic %v, one worker surfaced %v", eng.name, w, trial, got, seq)
				}
			}
		}
	}
}

// TestOptionsNormalized pins the bound-validation contract every engine
// relies on: the MaxConfigs default and the MaxDepth clamp.
func TestOptionsNormalized(t *testing.T) {
	cases := []struct {
		name string
		in   explore.Options
		want explore.Options
	}{
		{"zero", explore.Options{},
			explore.Options{MaxConfigs: explore.DefaultMaxConfigs}},
		{"negative-depth-clamped", explore.Options{MaxConfigs: 10, MaxDepth: -7},
			explore.Options{MaxConfigs: 10, MaxDepth: 0}},
		{"negative-budget-defaulted", explore.Options{MaxConfigs: -1},
			explore.Options{MaxConfigs: explore.DefaultMaxConfigs}},
		{"kept", explore.Options{MaxConfigs: 42, MaxDepth: 3, Workers: 5},
			explore.Options{MaxConfigs: 42, MaxDepth: 3, Workers: 5}},
	}
	for _, tc := range cases {
		if got := tc.in.Normalized(); got != tc.want {
			t.Errorf("%s: Normalized() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// A negative MaxDepth must behave exactly like unlimited, not like
	// "depth < 0 is instantly capped".
	pr := &panicProto{n: 2, boomAt: 1 << 30}
	c := model.MustInitial(pr, model.Inputs{0, 0})
	unlimited, _ := explore.CountReachable(pr, c, explore.Options{MaxConfigs: 50, MaxDepth: 0})
	negative, _ := explore.CountReachable(pr, c, explore.Options{MaxConfigs: 50, MaxDepth: -3})
	if unlimited != negative {
		t.Errorf("MaxDepth -3 explored %d configurations, unlimited explored %d", negative, unlimited)
	}
}
