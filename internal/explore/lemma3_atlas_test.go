package explore_test

import (
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/deadstart"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestLemma3AtlasMatchesCensus holds Lemma3Atlas to a per-pair oracle
// that shares nothing with it but the protocol: on every complete case of
// the oracle's table and on deadstart(3) from a bivalent input, each
// node's class comes from budgeted Classify, each pair (bivalent C,
// applicable e) is walked by Frontier, and the lemma holds at the pair
// exactly when Classify calls some D = e(E) bivalent. The oracle's pairs
// must be the atlas's, pair for pair and verdict for verdict.
func TestLemma3AtlasMatchesCensus(t *testing.T) {
	type subject struct {
		name string
		pr   model.Protocol
		root *model.Config
		opt  explore.Options
	}
	var subjects []subject
	roots := make(map[string]bool)
	for _, c := range enginetest.Cases(t) {
		pr, root := c.MustResolve(t)
		key := pr.Name() + "|" + string(root.KeyBytes())
		if _, ok := explore.BuildAtlas(pr, root, c.Options); !ok || roots[key] {
			continue
		}
		roots[key] = true
		subjects = append(subjects, subject{c.Name, pr, root, c.Options})
	}
	// deadstart(3)'s three bivalent inputs are one graph up to renaming
	// the processes; 011 stands for them.
	ds := deadstart.New(3)
	subjects = append(subjects, subject{"deadstart(3) 011", ds, model.MustInitial(ds, model.Inputs{0, 1, 1}), explore.Options{}})

	pairs, failures := 0, 0
	for _, s := range subjects {
		a, ok := explore.BuildAtlas(s.pr, s.root, s.opt)
		if !ok {
			t.Fatalf("%s: no atlas", s.name)
		}
		classes := make(map[string]explore.Valency)
		classify := func(c *model.Config) explore.Valency {
			k := string(c.KeyBytes())
			v, ok := classes[k]
			if !ok {
				v = explore.Classify(s.pr, c, s.opt).Valency
				classes[k] = v
			}
			return v
		}
		tallies := explore.Lemma3Atlas(a)
		failed := make([]map[int32]bool, len(tallies))
		for i, tl := range tallies {
			failed[i] = make(map[int32]bool)
			for _, f := range tl.Failures {
				failed[i][f.C] = true
			}
		}
		oraclePairs := make([]int, len(tallies))
		for id := int32(0); id < int32(a.Len()); id++ {
			c := a.Config(id)
			if classify(c) != explore.Bivalent {
				continue
			}
			for _, e := range model.Events(c) {
				i := indexOf(tallies, e)
				if i < 0 {
					t.Fatalf("%s: event %s applicable at node %d has no tally", s.name, e, id)
				}
				oraclePairs[i]++
				found := false
				if _, err := explore.Frontier(s.pr, c, e, s.opt, func(_, D *model.Config, _ func() model.Schedule) bool {
					found = classify(D) == explore.Bivalent
					return !found
				}); err != nil {
					t.Fatal(err)
				}
				if found == failed[i][id] {
					t.Errorf("%s: node %d, %s: the oracle finds a bivalent D = %v, Lemma3Atlas reports a failure = %v", s.name, id, e, found, failed[i][id])
				}
			}
		}
		for i, tl := range tallies {
			if tl.Pairs != oraclePairs[i] || tl.Holds+len(tl.Failures) != tl.Pairs {
				t.Errorf("%s, %s: Lemma3Atlas counts %d pairs (%d hold, %d fail), the oracle %d", s.name, tl.Event, tl.Pairs, tl.Holds, len(tl.Failures), oraclePairs[i])
			}
			pairs += tl.Pairs
			failures += len(tl.Failures)
		}
	}
	if pairs == 0 || failures == 0 {
		t.Fatalf("%d pairs and %d failures over %d atlases: the subjects lost their bivalent nodes or their failures", pairs, failures, len(subjects))
	}
	t.Logf("%d atlases, %d (bivalent C, e) pairs, %d failures", len(subjects), pairs, failures)
}

func indexOf(tallies []explore.Lemma3Tally, e model.Event) int {
	for i, tl := range tallies {
		if tl.Event.Same(e) {
			return i
		}
	}
	return -1
}

// TestLemma3FailuresBlock pins Lemma 3's whole-atlas tally from every
// bivalent input of two protocols outside the lemma's hypotheses, and
// checks every failure's certificate without the atlas: its schedule
// replays through model.Apply from the initial configuration, through C to
// C₀, applying e nowhere after C; and a p-free search from C₀ by the
// reference loop is complete and meets no decision. naivemajority(3) is
// not partially correct, yet the lemma holds at each of its pairs;
// deadstart(3) waits for every process's input, so a crash blocks it.
// An atlas loaded from the built one's snapshot must give the same tally.
func TestLemma3FailuresBlock(t *testing.T) {
	for _, tc := range []struct {
		pr            model.Protocol
		pairs, failed int
	}{
		{protocols.NewNaiveMajority(3), 669, 0},
		{deadstart.New(3), 3618, 804},
	} {
		bivalent := 0
		for _, in := range model.AllInputs(tc.pr.N()) {
			root := model.MustInitial(tc.pr, in)
			a, ok := explore.BuildAtlas(tc.pr, root, explore.Options{})
			if !ok {
				t.Fatalf("%s %s: no atlas", tc.pr.Name(), in)
			}
			if a.ValencyAt(0) != explore.Bivalent {
				continue
			}
			bivalent++
			tallies := explore.Lemma3Atlas(a)
			loaded, err := explore.LoadAtlas(tc.pr, root, a.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(explore.Lemma3Atlas(loaded), tallies) {
				t.Errorf("%s %s: Lemma3Atlas differs on the atlas loaded from its snapshot", tc.pr.Name(), in)
			}
			pairs, failed := 0, 0
			type block struct {
				p  model.PID
				c0 string
			}
			blocks := make(map[block]bool) // the p-free search's verdict by (p, C₀)
			for _, tl := range tallies {
				pairs += tl.Pairs
				failed += len(tl.Failures)
				for _, f := range tl.Failures {
					if f.P != tl.Event.P {
						t.Fatalf("%s %s, %s: certificate crashes p%d", tc.pr.Name(), in, tl.Event, f.P)
					}
					c0 := replayCertificate(t, tc.pr, a, tl.Event, f)
					k := block{f.P, string(c0.KeyBytes())}
					if _, ok := blocks[k]; !ok {
						blocks[k] = decisionUnreachableWithout(tc.pr, c0, f.P)
					}
					if !blocks[k] {
						t.Errorf("%s %s, %s at node %d: a p%d-free run from C₀ (node %d) decides", tc.pr.Name(), in, tl.Event, f.C, f.P, f.C0)
					}
				}
			}
			if pairs != tc.pairs || failed != tc.failed {
				t.Errorf("%s %s: Lemma 3 fails at %d of %d pairs, want %d of %d", tc.pr.Name(), in, failed, pairs, tc.failed, tc.pairs)
			}
		}
		if bivalent == 0 {
			t.Errorf("%s: no bivalent input", tc.pr.Name())
		}
	}
}

// replayCertificate replays f's schedule from a's root with model.Apply,
// checks that it passes through f.C at C's depth, applies no event Same
// as e after it and ends at f.C0, and returns the configuration reached.
func replayCertificate(t *testing.T, pr model.Protocol, a *explore.Atlas, e model.Event, f explore.Lemma3Failure) *model.Config {
	t.Helper()
	depthC := len(a.PathTo(f.C))
	c := a.Root()
	for i, ev := range f.Schedule {
		if i == depthC && !c.Equal(a.Config(f.C)) {
			t.Fatalf("certificate for %s at node %d does not pass through C", e, f.C)
		}
		if i >= depthC && ev.Same(e) {
			t.Fatalf("certificate for %s at node %d applies e after C", e, f.C)
		}
		next, err := model.Apply(pr, c, ev)
		if err != nil {
			t.Fatalf("certificate for %s at node %d: step %d: %v", e, f.C, i, err)
		}
		c = next
	}
	if len(f.Schedule) == depthC && !c.Equal(a.Config(f.C)) {
		t.Fatalf("certificate for %s at node %d does not pass through C", e, f.C)
	}
	if !c.Equal(a.Config(f.C0)) {
		t.Fatalf("certificate for %s at node %d does not end at node %d", e, f.C, f.C0)
	}
	return c
}

// decisionUnreachableWithout reports whether the reference loop, walking
// every run from c in which p takes no step, exhausts them without
// meeting a configuration that holds a decision.
func decisionUnreachableWithout(pr model.Protocol, c *model.Config, p model.PID) bool {
	decided := false
	complete, _ := explore.ReferenceExplore(pr, c, explore.Options{}, func(ev model.Event) bool { return ev.P == p }, func(cfg *model.Config, _ int, _ func() model.Schedule) bool {
		decided = len(cfg.DecisionValues()) > 0
		return decided
	})
	return complete && !decided
}
