package explore_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/deadstart"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// rootLoopWorkers are the worker counts the root loops are held to: the
// sequential path (−1 and 1), one helper, and more helpers than roots.
var rootLoopWorkers = []int{-1, 1, 2, 8}

// rootLoopBudget keeps the loops quick enough for the race detector: the
// finite registry protocols still close (naivemajority(3) has 141
// configurations), paxos, Ben-Or and the larger generated ones are cut.
const rootLoopBudget = 150

// rootLoopCase is one protocol the root loops are held to, with its bounds.
type rootLoopCase struct {
	pr  model.Protocol
	opt explore.Options
}

// rootLoopProtocols is every protocol of the oracle's case table, once per
// (protocol, size), under the bounds of its first case but never more than
// rootLoopBudget configurations a walk, plus deadstart(3).
func rootLoopProtocols(t *testing.T) []rootLoopCase {
	type key struct {
		name string
		n    int
	}
	seen := map[key]bool{}
	var out []rootLoopCase
	for _, c := range enginetest.Cases(t) {
		if seen[key{c.Protocol, c.N}] {
			continue
		}
		seen[key{c.Protocol, c.N}] = true
		pr, _ := c.MustResolve(t)
		opt := c.Options.Normalized()
		opt.MaxConfigs = min(opt.MaxConfigs, rootLoopBudget)
		out = append(out, rootLoopCase{pr, opt})
	}
	return append(out, rootLoopCase{deadstart.New(3), explore.Options{MaxConfigs: rootLoopBudget}})
}

// rootLoops runs every loop over the initial configurations at opt and
// returns what each reports, to be compared whole.
func rootLoops(t *testing.T, pr model.Protocol, opt explore.Options) map[string]any {
	t.Helper()
	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	c, in, ok := explore.FindBivalentInitial(pr, opt)
	found := []any{in, ok}
	if ok {
		found = append(found, c.KeyBytes())
	}
	cache := explore.NewCache(pr, opt)
	atlases := explore.NewAtlasCache()
	return map[string]any{
		"CensusInitial":       must(explore.CensusInitial(pr, opt)),
		"FindBivalentInitial": found,
		"Census/Cache":        must(explore.Census(pr, opt, cache.ClassifyWith, nil)),
		"Census/ClassifyRootCached": must(explore.Census(pr, opt, func(c *model.Config, o explore.Options) explore.ValencyInfo {
			return explore.ClassifyRootCached(pr, c, o, atlases)
		}, nil)),
		"CheckPartialCorrectness": must(explore.CheckPartialCorrectness(pr, opt)),
	}
}

// TestRootLoopsMatchSequential holds the loops over the 2^N initial
// configurations — CensusInitial, FindBivalentInitial, Census over a
// valency Cache and over ClassifyRootCached, CheckPartialCorrectness — to
// the sequential loop at every worker count, field for field: valencies,
// Visited, witnesses, the first violation's schedule, Configs. Then it
// stops a census at every root: each must see the roots in order and none
// after it returns false, and at most Workers−1 roots past the stop may be
// classified at all.
func TestRootLoopsMatchSequential(t *testing.T) {
	for _, p := range rootLoopProtocols(t) {
		want := rootLoops(t, p.pr, withWorkers(p.opt, 1))
		full := want["Census/Cache"].(explore.InitialCensus)
		memo := explore.NewCache(p.pr, p.opt) // the stops reclassify each root
		for _, w := range rootLoopWorkers {
			opt := withWorkers(p.opt, w)
			for loop, got := range rootLoops(t, p.pr, opt) {
				if !reflect.DeepEqual(got, want[loop]) {
					t.Fatalf("%s workers=%d %s:\n got %+v\nwant %+v", p.pr.Name(), w, loop, got, want[loop])
				}
			}
			for stop := range full.PerInput {
				var classified atomic.Int32
				var seen []model.Inputs
				census, err := explore.Census(p.pr, opt, func(c *model.Config, o explore.Options) explore.ValencyInfo {
					classified.Add(1)
					return memo.ClassifyWith(c, o)
				}, func(iv explore.InitialValency) bool {
					seen = append(seen, iv.Inputs)
					return len(seen) <= stop
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s workers=%d stop at root %d", p.pr.Name(), w, stop)
				if !reflect.DeepEqual(census.PerInput, full.PerInput[:stop+1]) {
					t.Fatalf("%s: census covers %v, want the first %d roots", name, census.PerInput, stop+1)
				}
				for i, in := range seen {
					if i > stop || in.String() != full.PerInput[i].Inputs.String() {
						t.Fatalf("%s: each saw %v, want the first %d roots in AllInputs order", name, seen, stop+1)
					}
				}
				// Every root is classified at most once, so the calls past
				// the stop are the calls beyond the roots each saw.
				if past, limit := int(classified.Load())-(stop+1), max(w, 1)-1; past > limit {
					t.Fatalf("%s: %d roots classified past the stop, at most %d may be", name, past, limit)
				}
			}
		}
	}
}

// rootPanicProto is a two-process protocol in which a process with input 1
// panics on reaching boomAt[pid] steps. Roots 01 and 10 (and 11) panic;
// root 01's panic comes after a few levels and root 10's on its first
// step, so on a pool the higher root usually panics first.
type rootPanicProto struct{}

var rootPanicBoomAt = [2]int{1, 6}

type rootPanicState struct {
	in    model.Value
	steps int
}

func (s rootPanicState) Key() string          { return fmt.Sprintf("i%d s%d", s.in, s.steps) }
func (s rootPanicState) Output() model.Output { return model.None }

func (rootPanicProto) Name() string { return "rootpanic" }
func (rootPanicProto) N() int       { return 2 }
func (rootPanicProto) Init(_ model.PID, v model.Value) model.State {
	return rootPanicState{in: v}
}
func (rootPanicProto) Step(pid model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	st := s.(rootPanicState)
	st.steps = min(st.steps+1, 8)
	if st.in == model.V1 && st.steps >= rootPanicBoomAt[pid] {
		panic(fmt.Sprintf("rootpanic: p%d has input 1", pid))
	}
	return st, nil
}

// TestRootLoopPanicDeterminism holds the root loops to the sequential
// loop's panic: several roots panic, and the lowest one's value is
// re-raised at every worker count, however the roots were scheduled. A
// census stopped before the first panicking root raises nothing, though a
// pool may have walked that root. The helpers survive it all: afterwards
// there are at most 7 more goroutines (the helpers of 8 workers) and a
// census equals the sequential one.
func TestRootLoopPanicDeterminism(t *testing.T) {
	before := runtime.NumGoroutine()
	pr := rootPanicProto{}
	const want = "rootpanic: p1 has input 1" // root 01's
	recovered := func(run func()) (v any) {
		defer func() { v = recover() }()
		run()
		return nil
	}
	loops := map[string]func(explore.Options){
		"CensusInitial":           func(o explore.Options) { explore.CensusInitial(pr, o) },
		"FindBivalentInitial":     func(o explore.Options) { explore.FindBivalentInitial(pr, o) },
		"CheckPartialCorrectness": func(o explore.Options) { explore.CheckPartialCorrectness(pr, o) },
		"Census stopped at root 00": func(o explore.Options) {
			explore.Census(pr, o, func(c *model.Config, o explore.Options) explore.ValencyInfo {
				return explore.Classify(pr, c, o)
			}, func(explore.InitialValency) bool { return false })
		},
	}
	for name, loop := range loops {
		wantHere := any(want)
		if name == "Census stopped at root 00" {
			wantHere = nil
		}
		for _, w := range rootLoopWorkers {
			for trial := 0; trial < 20; trial++ {
				if got := recovered(func() { loop(explore.Options{Workers: w}) }); got != wantHere {
					t.Fatalf("%s workers=%d trial %d: surfaced %v, the sequential loop surfaces %v", name, w, trial, got, wantHere)
				}
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before+7 {
		t.Fatalf("%d goroutines after the panicking loops, %d before: more than 7 helpers, or a loop leaked", after, before)
	}
	nm := narrowProtocol(t, "naivemajority", 3)
	seq, err := explore.CensusInitial(nm, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := explore.CensusInitial(nm, explore.Options{Workers: 8}); err != nil || !reflect.DeepEqual(got, seq) {
		t.Fatalf("after the panicking loops: census at 8 workers %+v (%v), want %+v", got, err, seq)
	}
}

// TestRootLoopsRefuseHostileN holds both root loops to model.CheckInputsN:
// an N below 2, or one whose 2^N roots cannot be listed, is an error before
// any root is walked, at every worker count. Unchecked, AllInputs panics at
// N = −1 and 63 and lists no root at N = 64.
func TestRootLoopsRefuseHostileN(t *testing.T) {
	walked := 0
	classify := func(*model.Config, explore.Options) explore.ValencyInfo {
		walked++
		return explore.ValencyInfo{}
	}
	for _, n := range []int{-1, 0, 1, model.MaxInputsN + 1, 63, 64} {
		for _, pr := range []model.Protocol{protocols.NewWaitAll(n), protocols.NewTwoPhaseCommit(n)} {
			for _, w := range rootLoopWorkers {
				opt := explore.Options{MaxConfigs: rootLoopBudget, Workers: w}
				if census, err := explore.Census(pr, opt, classify, nil); err == nil {
					t.Errorf("Census(%s, n=%d, workers %d) = %d roots, all exact %v; want an error",
						pr.Name(), n, w, len(census.PerInput), census.AllExact)
				}
				if _, err := explore.CheckPartialCorrectness(pr, opt); err == nil {
					t.Errorf("CheckPartialCorrectness(%s, n=%d, workers %d): want an error", pr.Name(), n, w)
				}
			}
		}
	}
	if walked != 0 {
		t.Errorf("%d roots walked at a refused N", walked)
	}
}
