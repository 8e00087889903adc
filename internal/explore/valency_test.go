package explore_test

import (
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// verifyWitness checks that a witness schedule really reaches a
// configuration with decision value v.
func verifyWitness(t *testing.T, pr model.Protocol, c *model.Config, sigma model.Schedule, v model.Value) {
	t.Helper()
	cfg, err := model.ApplySchedule(pr, c, sigma)
	if err != nil {
		t.Fatalf("witness schedule not applicable: %v", err)
	}
	for _, d := range cfg.DecisionValues() {
		if d == v {
			return
		}
	}
	t.Fatalf("witness schedule does not reach decision value %v (values: %v)", v, cfg.DecisionValues())
}

func TestClassifyNaiveMajority(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	cases := []struct {
		inputs model.Inputs
		want   explore.Valency
	}{
		{in(0, 0, 0), explore.ZeroValent},
		{in(0, 0, 1), explore.ZeroValent}, // a single 1 always loses the tie-break
		{in(0, 1, 1), explore.Bivalent},
		{in(1, 1, 1), explore.OneValent},
	}
	for _, tc := range cases {
		c := model.MustInitial(pr, tc.inputs)
		info := explore.Classify(pr, c, explore.Options{})
		if info.Valency != tc.want || !info.Exact {
			t.Errorf("inputs %s: valency %v (exact=%v), want %v exact", tc.inputs, info.Valency, info.Exact, tc.want)
		}
		if info.HasWitness(model.V0) {
			verifyWitness(t, pr, c, info.Witness0, model.V0)
		}
		if info.HasWitness(model.V1) {
			verifyWitness(t, pr, c, info.Witness1, model.V1)
		}
	}
}

func TestClassifyWaitAllAlwaysUnivalent(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	for _, inp := range model.AllInputs(3) {
		c := model.MustInitial(pr, inp)
		info := explore.Classify(pr, c, explore.Options{})
		if v := info.Valency; (v != explore.ZeroValent && v != explore.OneValent) || !info.Exact {
			t.Errorf("inputs %s: valency %v, want exact univalent", inp, info.Valency)
		}
		// The decision is the majority of all inputs, schedule-independent.
		want := explore.ZeroValent
		if inp.Count(model.V1)*2 > 3 {
			want = explore.OneValent
		}
		if info.Valency != want {
			t.Errorf("inputs %s: valency %v, want %v", inp, info.Valency, want)
		}
	}
}

func TestClassifyTwoPhaseCommit(t *testing.T) {
	pr := protocols.NewTwoPhaseCommit(3)
	for _, inp := range model.AllInputs(3) {
		c := model.MustInitial(pr, inp)
		info := explore.Classify(pr, c, explore.Options{})
		want := explore.ZeroValent
		if inp.Count(model.V0) == 0 {
			want = explore.OneValent // commit iff every vote is "commit"
		}
		if info.Valency != want || !info.Exact {
			t.Errorf("inputs %s: valency %v (exact=%v), want %v", inp, info.Valency, info.Exact, want)
		}
	}
}

func TestClassifyBudgetGivesUnknown(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	c := model.MustInitial(pr, in(0, 0, 0))
	info := explore.Classify(pr, c, explore.Options{MaxConfigs: 50})
	if info.Exact {
		t.Error("tiny-budget classification of an unbounded protocol claimed exactness")
	}
	if info.Valency != explore.Unknown {
		t.Errorf("valency = %v, want unknown", info.Valency)
	}
}

func TestClassifyBivalentIsExactDespiteBudget(t *testing.T) {
	// Bivalence is certified by two witnesses and stays exact even when
	// the reachable set is not exhausted.
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	info := explore.Classify(pr, c, explore.Options{MaxConfigs: 100})
	if info.Valency != explore.Bivalent || !info.Exact {
		t.Errorf("valency = %v exact=%v, want exact bivalent", info.Valency, info.Exact)
	}
	if info.Complete {
		// 141 configurations are reachable; with early exit on both
		// witnesses the search should stop well before exhausting them.
		t.Log("note: classification completed despite early exit (acceptable)")
	}
}

func TestValencyStrings(t *testing.T) {
	for v, want := range map[explore.Valency]string{
		explore.Unknown:    "unknown",
		explore.Stuck:      "stuck",
		explore.ZeroValent: "0-valent",
		explore.OneValent:  "1-valent",
		explore.Bivalent:   "bivalent",
	} {
		if v.String() != want {
			t.Errorf("Valency(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestCacheMemoizes(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	cache := explore.NewCache(pr, explore.Options{})
	c := model.MustInitial(pr, in(0, 1, 1))
	first := cache.Classify(c)
	second := cache.Classify(c)
	if first.Valency != second.Valency {
		t.Error("cache returned a different classification")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1, 1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", cache.Len())
	}
}

// TestCacheClassifiesOnlyWhereAtlasRefuses counts where per-configuration
// Classify still answers for a valency cache, over every atlasable root of
// the oracle's case table (the committed protogen corpus included): a
// cache warmed from the root's atlas answers every configuration of that
// atlas without one classification of its own, and a root whose atlas is
// refused is classified by budgeted Classify, with Classify's answer.
func TestCacheClassifiesOnlyWhereAtlasRefuses(t *testing.T) {
	covered, refused, configs := 0, 0, 0
	for _, c := range enginetest.Cases(t) {
		if !c.Atlasable() {
			continue
		}
		pr, root := c.MustResolve(t)
		atlases := explore.NewAtlasCache()
		cache := explore.NewCache(pr, c.Options)
		cache.ShareAtlasBuilds(atlases)
		if !cache.TryWarm(root) {
			refused++
			got, want := cache.Classify(root), explore.Classify(pr, root, c.Options)
			if err := enginetest.DiffValency(pr, root, enginetest.ValencyOf(want), enginetest.ValencyOf(got)); err != nil {
				t.Errorf("%s: refused root: %v", c.Name, err)
			}
			if got.Visited != want.Visited {
				t.Errorf("%s: refused root visited %d, Classify %d", c.Name, got.Visited, want.Visited)
			}
			if _, misses := cache.Stats(); misses != 1 {
				t.Errorf("%s: refused root cost %d classifications, want 1", c.Name, misses)
			}
			continue
		}
		covered++
		atlas, _ := atlases.Get(pr, root, c.Options)
		for id := int32(0); id < int32(atlas.Len()); id++ {
			if got, want := cache.Classify(atlas.Config(id)).Valency, atlas.ValencyAt(id); got != want {
				t.Errorf("%s: configuration %d: cache says %s, atlas %s", c.Name, id, got, want)
			}
		}
		configs += atlas.Len()
		if _, misses := cache.Stats(); misses != 0 {
			t.Errorf("%s: %d per-configuration classifications inside a complete atlas", c.Name, misses)
		}
	}
	t.Logf("%d atlasable roots: %d covered (%d configurations answered from their atlas), %d refused (budgeted Classify)",
		covered+refused, covered, configs, refused)
}

func TestSmartCacheCertifiesPaxosBivalence(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	cache := explore.NewSmartCache(pr, explore.Options{MaxConfigs: 500}, explore.ProbeOptions{})
	c := model.MustInitial(pr, in(0, 1, 1))
	info := cache.Classify(c)
	if info.Valency != explore.Bivalent || !info.Exact {
		t.Fatalf("paxos 011: valency %v exact=%v, want exact bivalent", info.Valency, info.Exact)
	}
	verifyWitness(t, pr, c, info.Witness0, model.V0)
	verifyWitness(t, pr, c, info.Witness1, model.V1)
	// The case only the probe answers (ROADMAP 5(b)): breadth-first
	// classification at the adversary's own budget sees no decision at all
	// in Paxos's unbounded reachable set, from this or any stage candidate.
	if bfs := explore.Classify(pr, c, explore.Options{MaxConfigs: 1500}); bfs.Valency == explore.Bivalent || bfs.Complete {
		t.Errorf("budgeted Classify alone: valency %v complete=%v; the probe is no longer the only route", bfs.Valency, bfs.Complete)
	}
}

func TestClassifySmartPaxosValidity(t *testing.T) {
	// Unanimous inputs: Paxos only ever decides the proposed value, so the
	// probe must not fabricate the other value.
	pr := protocols.NewPaxosSynod(3)
	c := model.MustInitial(pr, in(0, 0, 0))
	info := explore.ClassifySmart(pr, c, explore.Options{MaxConfigs: 500}, explore.ProbeOptions{})
	if info.HasWitness(model.V1) {
		t.Error("probe claims decision value 1 is reachable from unanimous-0 Paxos")
	}
	if info.HasWitness(model.V0) {
		verifyWitness(t, pr, c, info.Witness0, model.V0)
	} else {
		t.Error("probe failed to find the 0 decision from unanimous-0 Paxos")
	}
}

func TestProbeValenciesBenOr(t *testing.T) {
	pr := protocols.NewBenOrDeterministic(5, 7)
	c := model.MustInitial(pr, in(0, 0, 1, 1, 0))
	w0, w1, f0, f1 := explore.ProbeValencies(pr, c, explore.ProbeOptions{})
	if !f0 || !f1 {
		t.Fatalf("probe found0=%v found1=%v, want both for a mixed-input Ben-Or", f0, f1)
	}
	verifyWitness(t, pr, c, w0, model.V0)
	verifyWitness(t, pr, c, w1, model.V1)
}

func TestProbeStuckProtocol(t *testing.T) {
	// 2PC's decision is input-determined; probes from an abort-bound
	// configuration must never find a commit.
	pr := protocols.NewTwoPhaseCommit(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	_, _, f0, f1 := explore.ProbeValencies(pr, c, explore.ProbeOptions{})
	if !f0 {
		t.Error("probe missed the abort decision")
	}
	if f1 {
		t.Error("probe fabricated a commit decision")
	}
}
