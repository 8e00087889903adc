package explore_test

import (
	"fmt"
	"maps"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// finiteFixtures are the registry protocols whose reachable sets are known
// to fit the differential budget; the atlas MUST build for these.
var finiteFixtures = map[string]bool{
	"trivial0":      true,
	"waitall":       true,
	"naivemajority": true,
	"2pc":           true,
	"3pc":           true,
}

// atlasTestBudget comfortably covers every finite fixture (the largest,
// naivemajority(3), has 1128 reachable configurations) while keeping the
// refusal sweeps of the unbounded fixtures cheap.
const atlasTestBudget = 3000

func registryFixture(t *testing.T, name string) model.Protocol {
	t.Helper()
	n, ok := enginetest.RegistryN[name]
	if !ok {
		t.Fatalf("registry protocol %q has no size; extend enginetest.RegistryN", name)
	}
	factory, ok := protocols.Lookup(name)
	if !ok {
		t.Fatalf("registry lost protocol %q", name)
	}
	pr, err := factory(n)
	if err != nil {
		t.Fatalf("building %s(%d): %v", name, n, err)
	}
	return pr
}

// TestAtlasDifferentialAgainstClassify is the atlas's correctness contract:
// for every registry protocol and every initial input vector, every node of
// the atlas must classify identically to a per-configuration Classify under
// the same budget — same valency, same exactness, same witness presence,
// and same (shortest) witness lengths — and every other way of reaching
// the atlas must leave the same arrays and classifications: one
// uninterrupted Extend at one worker and at several; a builder truncated at
// depth 3, serialized through its snapshot and restored by replaying the
// canonical keys, then run to completion; and a load of the finished
// atlas's snapshot, the persistence path. Protocols whose state spaces
// exceed the budget must refuse to build at every worker count — the
// per-config fallback is then the only path, and there is nothing to
// differ.
func TestAtlasDifferentialAgainstClassify(t *testing.T) {
	for _, name := range protocols.Names() {
		t.Run(name, func(t *testing.T) {
			pr := registryFixture(t, name)
			opt := explore.Options{MaxConfigs: atlasTestBudget}
			for _, inp := range model.AllInputs(pr.N()) {
				root := model.MustInitial(pr, inp)
				want, ok := explore.BuildAtlas(pr, root, opt)
				if !ok {
					if finiteFixtures[name] {
						t.Fatalf("inputs %s: atlas refused to build for a finite protocol within budget %d", inp, atlasTestBudget)
					}
					for _, workers := range []int{1, 8} {
						if _, ok := explore.BuildAtlas(pr, root, withWorkers(opt, workers)); ok {
							t.Fatalf("inputs %s: atlas refused, but built at %d workers", inp, workers)
						}
					}
					// Over-budget root: the remaining inputs are the same
					// size; skip them rather than paying more failed sweeps.
					break
				}
				if _, _, err := enginetest.WalkAtlas(pr, opt, want, 1, nil); err != nil {
					t.Fatalf("inputs %s: %v", inp, err)
				}
				agree := func(way string, b *explore.AtlasBuilder) {
					snapshotsEqual(t, fmt.Sprintf("inputs %s, %s", inp, way), want.Snapshot(), b.Snapshot())
					got, ok := b.Finish()
					if !ok {
						t.Fatalf("inputs %s, %s: builder incomplete within budget", inp, way)
					}
					if err := enginetest.DiffAtlases(want, got); err != nil {
						t.Fatalf("inputs %s, %s: %v", inp, way, err)
					}
				}
				for _, workers := range []int{1, 8} {
					b := explore.NewAtlasBuilder(pr, root)
					if n := b.Extend(withWorkers(opt, workers)); n != want.Len() {
						t.Fatalf("inputs %s workers %d: expanded %d nodes, want %d", inp, workers, n, want.Len())
					}
					agree(fmt.Sprintf("workers %d", workers), b)
				}
				shallow := explore.NewAtlasBuilder(pr, root)
				shallow.Extend(explore.Options{MaxConfigs: atlasTestBudget, MaxDepth: 3})
				restored, err := explore.RestoreAtlasBuilder(pr, root, shallow.Snapshot())
				if err != nil {
					t.Fatalf("inputs %s: RestoreAtlasBuilder: %v", inp, err)
				}
				restored.Extend(opt)
				agree("restored from depth 3", restored)

				loaded, err := explore.LoadAtlas(pr, root, want.Snapshot())
				if err != nil {
					t.Fatalf("inputs %s: LoadAtlas: %v", inp, err)
				}
				if err := enginetest.DiffAtlases(want, loaded); err != nil {
					t.Fatalf("inputs %s: loaded vs built: %v", inp, err)
				}
				if !maps.Equal(want.Census(), loaded.Census()) {
					t.Fatalf("inputs %s: census %v loaded, %v built", inp, loaded.Census(), want.Census())
				}
			}
		})
	}
}

// TestAtlasPathToReplaysToNode checks the breadth-first tree: PathTo(id)
// must replay from the root to exactly node id's configuration.
func TestAtlasPathToReplaysToNode(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, in(0, 1, 1))
	a, ok := explore.BuildAtlas(pr, root, explore.Options{})
	if !ok {
		t.Fatal("atlas refused to build on the finite fixture")
	}
	for id := int32(0); id < int32(a.Len()); id++ {
		end := model.MustApplySchedule(pr, root, a.PathTo(id))
		if !end.Equal(a.Config(id)) {
			t.Fatalf("node %d: PathTo does not replay to the node's configuration", id)
		}
	}
}

// TestAtlasStuck covers the V = ∅ class: a protocol that never decides
// classifies every node Stuck, identically to Classify.
func TestAtlasStuck(t *testing.T) {
	pr := muteProto{}
	root := model.MustInitial(pr, in(0, 1))
	a, ok := explore.BuildAtlas(pr, root, explore.Options{})
	if !ok {
		t.Fatal("atlas refused to build the mute protocol")
	}
	census := a.Census()
	if census[explore.Stuck] != a.Len() || a.Len() == 0 {
		t.Fatalf("census = %v over %d nodes, want all stuck", census, a.Len())
	}
	info, ok := a.Info(root)
	if !ok || info.Valency != explore.Stuck || !info.Exact {
		t.Fatalf("root info = %+v, ok=%v; want exact stuck", info, ok)
	}
}

// TestBuildAtlasRefusals pins the fallback conditions: depth-bounded
// options and over-budget state spaces must refuse, not truncate.
func TestBuildAtlasRefusals(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, in(0, 1, 1))
	if _, ok := explore.BuildAtlas(pr, root, explore.Options{MaxDepth: 3}); ok {
		t.Error("depth-bounded atlas accepted; depth is root-relative and must refuse")
	}
	if _, ok := explore.BuildAtlas(pr, root, explore.Options{MaxConfigs: 10}); ok {
		t.Error("over-budget atlas accepted; truncated atlases must not exist")
	}
	if a, ok := explore.BuildAtlas(pr, root, explore.Options{}); !ok || a.Len() == 0 {
		t.Error("unbounded-budget atlas refused on a finite protocol")
	}
}

// TestCacheWarmAnswersFromAtlas checks the Cache integration: a warmed
// cache must answer every covered configuration as a hit without running a
// single per-configuration classification.
func TestCacheWarmAnswersFromAtlas(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, in(0, 1, 1))
	opt := explore.Options{}
	a, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("atlas refused to build")
	}
	cache := explore.NewCache(pr, opt)
	cache.Warm(a)
	if !cache.Covers(root) {
		t.Fatal("warmed cache does not cover its atlas root")
	}
	for id := int32(0); id < int32(a.Len()); id++ {
		want := a.InfoAt(id)
		got := cache.Classify(a.Config(id))
		if got.Valency != want.Valency || got.Exact != want.Exact {
			t.Fatalf("node %d: cache says %s/%v, atlas says %s/%v", id, got.Valency, got.Exact, want.Valency, want.Exact)
		}
	}
	hits, misses := cache.Stats()
	if misses != 0 {
		t.Errorf("%d per-configuration classifications ran behind a full atlas (hits=%d)", misses, hits)
	}
}

// TestCacheTryWarm pins TryWarm's contract: success on coverable roots,
// memoized failure on over-budget ones.
func TestCacheTryWarm(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, in(0, 1, 1))
	cache := explore.NewCache(pr, explore.Options{})
	if !cache.TryWarm(root) {
		t.Fatal("TryWarm failed on a finite root")
	}
	if !cache.TryWarm(root) {
		t.Fatal("second TryWarm on a covered root failed")
	}

	small := explore.NewCache(pr, explore.Options{MaxConfigs: 10})
	if small.TryWarm(root) {
		t.Fatal("TryWarm succeeded over budget")
	}
	if small.TryWarm(root) {
		t.Fatal("memoized TryWarm failure flipped to success")
	}
	if info := small.Classify(root); info.Valency != explore.Unknown {
		t.Errorf("budget-10 classification = %s, want unknown", info.Valency)
	}
}
