package explore_test

import (
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// snapshotsEqual compares two exploration snapshots field by field —
// the byte-identity contract resumable building and persistence rest on.
func snapshotsEqual(t *testing.T, ctx string, a, b *explore.AtlasSnapshot) {
	t.Helper()
	if a.Len() != b.Len() || a.Expanded() != b.Expanded() || a.Complete != b.Complete {
		t.Fatalf("%s: shape differs: %d/%d nodes, %d/%d expanded, complete %v/%v",
			ctx, a.Len(), b.Len(), a.Expanded(), b.Expanded(), a.Complete, b.Complete)
	}
	for i := range a.Depth {
		if a.Depth[i] != b.Depth[i] || a.Parent[i] != b.Parent[i] || !a.ParentVia[i].Same(b.ParentVia[i]) {
			t.Fatalf("%s: node %d tree entries differ", ctx, i)
		}
		if string(a.Keys[i]) != string(b.Keys[i]) {
			t.Fatalf("%s: node %d canonical keys differ", ctx, i)
		}
	}
	if len(a.SuccTo) != len(b.SuccTo) {
		t.Fatalf("%s: edge counts differ: %d vs %d", ctx, len(a.SuccTo), len(b.SuccTo))
	}
	for i := range a.SuccStart {
		if a.SuccStart[i] != b.SuccStart[i] {
			t.Fatalf("%s: CSR offset %d differs", ctx, i)
		}
	}
	for i := range a.SuccTo {
		if a.SuccTo[i] != b.SuccTo[i] || !a.SuccVia[i].Same(b.SuccVia[i]) {
			t.Fatalf("%s: edge %d differs", ctx, i)
		}
	}
	// Distance columns exist only on snapshots taken from a finished
	// Atlas; compare them when both sides carry them.
	if len(a.Dist0) == len(b.Dist0) {
		for i := range a.Dist0 {
			if a.Dist0[i] != b.Dist0[i] || a.Dist1[i] != b.Dist1[i] {
				t.Fatalf("%s: node %d distances differ", ctx, i)
			}
		}
	}
}

// atlasesAgree sweeps every node of two atlases for identical
// classifications, witness lengths, id partitions, and root paths.
func atlasesAgree(t *testing.T, ctx string, want, got *explore.Atlas) {
	t.Helper()
	if want.Len() != got.Len() || want.Edges() != got.Edges() {
		t.Fatalf("%s: size differs: %d/%d nodes, %d/%d edges", ctx, want.Len(), got.Len(), want.Edges(), got.Edges())
	}
	for id := int32(0); id < int32(want.Len()); id++ {
		if want.ValencyAt(id) != got.ValencyAt(id) {
			t.Fatalf("%s: node %d valency %s vs %s", ctx, id, want.ValencyAt(id), got.ValencyAt(id))
		}
		for _, d := range []model.Value{model.V0, model.V1} {
			wl, wok := want.WitnessLen(id, d)
			gl, gok := got.WitnessLen(id, d)
			if wok != gok || wl != gl {
				t.Fatalf("%s: node %d witness length for %v: %d/%v vs %d/%v", ctx, id, d, wl, wok, gl, gok)
			}
		}
		cfg := want.Config(id)
		gid, ok := got.IDOf(cfg)
		if !ok || gid != id {
			t.Fatalf("%s: node %d not at the same dense id (got %d, ok=%v)", ctx, id, gid, ok)
		}
		if !schedulesEqual(want.PathTo(id), got.PathTo(id)) {
			t.Fatalf("%s: node %d root paths differ", ctx, id)
		}
		if !cfg.Equal(got.Config(id)) {
			t.Fatalf("%s: node %d configurations differ", ctx, id)
		}
	}
}

// TestAtlasBuilderMatchesBuildAtlas: one uninterrupted Extend must land on
// exactly the atlas BuildAtlas produces — same arrays, same
// classifications — at one worker and several.
func TestAtlasBuilderMatchesBuildAtlas(t *testing.T) {
	for name := range finiteFixtures {
		t.Run(name, func(t *testing.T) {
			pr := registryFixture(t, name)
			opt := explore.Options{MaxConfigs: atlasTestBudget}
			for _, inp := range model.AllInputs(pr.N()) {
				root := model.MustInitial(pr, inp)
				want, ok := explore.BuildAtlas(pr, root, opt)
				if !ok {
					t.Fatalf("inputs %s: BuildAtlas refused within budget", inp)
				}
				for _, workers := range []int{1, 8} {
					b := explore.NewAtlasBuilder(pr, root)
					wopt := opt
					wopt.Workers = workers
					n := b.Extend(wopt)
					if !b.Complete() {
						t.Fatalf("inputs %s workers %d: builder incomplete within budget", inp, workers)
					}
					if n != want.Len() {
						t.Fatalf("inputs %s workers %d: expanded %d nodes, want %d", inp, workers, n, want.Len())
					}
					snapshotsEqual(t, "builder vs BuildAtlas", want.Snapshot(), b.Snapshot())
					got, ok := b.Finish()
					if !ok {
						t.Fatalf("inputs %s workers %d: Finish refused a complete builder", inp, workers)
					}
					atlasesAgree(t, "finished builder vs BuildAtlas", want, got)
				}
			}
		})
	}
}

// TestAtlasBuilderBudgetParity: the builder must be complete exactly when
// BuildAtlas succeeds, at every budget — the complete-or-refused contract
// expressed incrementally — and must stop exactly where the budget rule
// says: before the first node whose distinct fresh successors do not fit.
// The expected stop is read off the full graph (a node's fresh successors
// are its breadth-first tree children), independently of the builder's own
// pre-scan. The sweep must include the boundary the pre-scan's guard sits
// on: a node whose raw successor count would overflow the budget while its
// fresh count fits has to be expanded all the same.
func TestAtlasBuilderBudgetParity(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	full, ok := explore.BuildAtlas(pr, root, explore.Options{MaxConfigs: atlasTestBudget})
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	graph := full.Snapshot()
	children := make([]int, full.Len())
	for _, p := range graph.Parent[1:] {
		children[p]++
	}
	boundaryHits := 0
	for budget := 1; budget <= full.Len()+1; budget++ {
		opt := explore.Options{MaxConfigs: budget}
		_, wantOK := explore.BuildAtlas(pr, root, opt)
		b := explore.NewAtlasBuilder(pr, root)
		b.Extend(opt)
		if b.Complete() != wantOK {
			t.Errorf("budget %d: builder complete = %v, BuildAtlas ok = %v", budget, b.Complete(), wantOK)
		}
		wantLen, wantExpanded := 1, 0
		for wantExpanded < wantLen && wantLen+children[wantExpanded] <= budget {
			outdeg := int(graph.SuccStart[wantExpanded+1] - graph.SuccStart[wantExpanded])
			if wantLen+outdeg > budget {
				boundaryHits++
			}
			wantLen += children[wantExpanded]
			wantExpanded++
		}
		if b.Len() != wantLen || b.Expanded() != wantExpanded {
			t.Errorf("budget %d: builder stopped at %d nodes / %d expanded, budget rule says %d / %d",
				budget, b.Len(), b.Expanded(), wantLen, wantExpanded)
		}
	}
	if boundaryHits == 0 {
		t.Error("no budget in the sweep put a node on the successor-count-overflows-but-fresh-fits boundary")
	}
}

// TestAtlasBuilderIncrementalDeepening is the frontier-resume contract:
// exploring to depth d and then extending to d+k expands exactly the
// nodes a one-shot depth-(d+k) exploration expands — the counter pins
// that nothing below depth d is re-expanded — and lands on an identical
// snapshot.
func TestAtlasBuilderIncrementalDeepening(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	budget := explore.Options{MaxConfigs: atlasTestBudget}

	for _, step := range []struct{ d, k int }{{2, 1}, {2, 3}, {4, 2}, {1, 100}} {
		// One shot to depth d+k.
		oneshot := explore.NewAtlasBuilder(pr, root)
		oneOpt := budget
		oneOpt.MaxDepth = step.d + step.k
		oneTotal := oneshot.Extend(oneOpt)

		// Depth d, then resume to d+k.
		inc := explore.NewAtlasBuilder(pr, root)
		dOpt := budget
		dOpt.MaxDepth = step.d
		n1 := inc.Extend(dOpt)
		dkOpt := budget
		dkOpt.MaxDepth = step.d + step.k
		n2 := inc.Extend(dkOpt)

		if n1+n2 != oneTotal {
			t.Fatalf("d=%d k=%d: incremental expanded %d+%d nodes, one-shot expanded %d — depth ≤ d was re-expanded",
				step.d, step.k, n1, n2, oneTotal)
		}
		snapshotsEqual(t, "incremental vs one-shot", oneshot.Snapshot(), inc.Snapshot())
	}
}

// TestAtlasBuilderSnapshotRestore: a truncated builder serialized through
// its snapshot and restored (configurations replayed from canonical keys)
// must continue to exactly the state an uninterrupted build reaches.
func TestAtlasBuilderSnapshotRestore(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	budget := explore.Options{MaxConfigs: atlasTestBudget}

	// Truncate at depth 3, snapshot, restore, run to completion.
	b := explore.NewAtlasBuilder(pr, root)
	dOpt := budget
	dOpt.MaxDepth = 3
	b.Extend(dOpt)
	restored, err := explore.RestoreAtlasBuilder(pr, root, b.Snapshot())
	if err != nil {
		t.Fatalf("RestoreAtlasBuilder: %v", err)
	}
	restored.Extend(budget)
	if !restored.Complete() {
		t.Fatal("restored builder did not complete within budget")
	}
	want, ok := explore.BuildAtlas(pr, root, budget)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	snapshotsEqual(t, "restored vs BuildAtlas", want.Snapshot(), restored.Snapshot())
	got, ok := restored.Finish()
	if !ok {
		t.Fatal("Finish refused a complete restored builder")
	}
	atlasesAgree(t, "restored vs BuildAtlas", want, got)
}

// TestLoadAtlasMatchesBuilt: an atlas round-tripped through its snapshot
// (the persistence path) must answer every query identically — censuses,
// valencies, witness lengths and schedules, id lookups, and lazily
// materialized configurations.
func TestLoadAtlasMatchesBuilt(t *testing.T) {
	for name := range finiteFixtures {
		t.Run(name, func(t *testing.T) {
			pr := registryFixture(t, name)
			opt := explore.Options{MaxConfigs: atlasTestBudget}
			for _, inp := range model.AllInputs(pr.N()) {
				root := model.MustInitial(pr, inp)
				want, ok := explore.BuildAtlas(pr, root, opt)
				if !ok {
					t.Fatalf("inputs %s: BuildAtlas refused within budget", inp)
				}
				got, err := explore.LoadAtlas(pr, root, want.Snapshot())
				if err != nil {
					t.Fatalf("inputs %s: LoadAtlas: %v", inp, err)
				}
				atlasesAgree(t, "loaded vs built", want, got)
				wantCensus, gotCensus := want.Census(), got.Census()
				for v, n := range wantCensus {
					if gotCensus[v] != n {
						t.Fatalf("inputs %s: census[%s] = %d loaded, %d built", inp, v, gotCensus[v], n)
					}
				}
				// Witness schedules replay on the loaded atlas too.
				for id := int32(0); id < int32(got.Len()) && id < 16; id++ {
					wi, gi := want.InfoAt(id), got.InfoAt(id)
					if wi.Valency != gi.Valency || !schedulesEqual(wi.Witness0, gi.Witness0) || !schedulesEqual(wi.Witness1, gi.Witness1) {
						t.Fatalf("inputs %s node %d: InfoAt differs between built and loaded", inp, id)
					}
				}
			}
		})
	}
}

// TestLoadAtlasRejectsPartialAndForeign: loading must fail loudly on a
// truncated snapshot and on a root the snapshot does not describe.
func TestLoadAtlasRejectsPartialAndForeign(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	opt := explore.Options{MaxConfigs: atlasTestBudget}

	b := explore.NewAtlasBuilder(pr, root)
	dOpt := opt
	dOpt.MaxDepth = 2
	b.Extend(dOpt)
	if _, err := explore.LoadAtlas(pr, root, b.Snapshot()); err == nil {
		t.Error("LoadAtlas accepted a partial snapshot")
	}

	a, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	other := model.MustInitial(pr, model.Inputs{1, 1, 1})
	if _, err := explore.LoadAtlas(pr, other, a.Snapshot()); err == nil {
		t.Error("LoadAtlas accepted a snapshot of a different root")
	}
	if _, err := explore.RestoreAtlasBuilder(pr, other, a.Snapshot()); err == nil {
		t.Error("RestoreAtlasBuilder accepted a snapshot of a different root")
	}
}

// TestAtlasCacheBackend: an installed backend replaces BuildAtlas as the
// cache's miss path, its refusals are memoized, and singleflight still
// holds.
func TestAtlasCacheBackend(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	opt := explore.Options{MaxConfigs: atlasTestBudget}

	calls := 0
	ac := explore.NewAtlasCache()
	ac.SetBackend(backendFunc(func(p model.Protocol, c *model.Config, o explore.Options) (*explore.Atlas, bool) {
		calls++
		return explore.BuildAtlas(p, c, o)
	}))
	a1, ok := ac.Get(pr, root, opt)
	if !ok || a1 == nil {
		t.Fatal("backend-backed cache refused a buildable atlas")
	}
	a2, _ := ac.Get(pr, root, opt)
	if a1 != a2 {
		t.Error("second lookup did not come from memory")
	}
	if calls != 1 {
		t.Errorf("backend called %d times, want 1", calls)
	}
	// Refusals pass through and are memoized too.
	tiny := explore.Options{MaxConfigs: 2}
	if _, ok := ac.Get(pr, root, tiny); ok {
		t.Error("cache returned an atlas the backend refused")
	}
	if _, ok := ac.Get(pr, root, tiny); ok {
		t.Error("memoized refusal changed on repeat lookup")
	}
	if calls != 2 {
		t.Errorf("backend called %d times, want 2", calls)
	}
}

// TestAtlasCacheCached pins the memory-only lookup the serving layer answers
// at admission with: it never builds and never asks the backend, it misses
// on an absent key, a memoized refusal and a build in flight, and each atlas
// it returns counts exactly one hit.
func TestAtlasCacheCached(t *testing.T) {
	pr := registryFixture(t, "naivemajority")
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	opt := explore.Options{MaxConfigs: atlasTestBudget}
	tiny := explore.Options{MaxConfigs: 2}
	slow := explore.Options{MaxConfigs: atlasTestBudget + 1}

	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	ac := explore.NewAtlasCache()
	ac.SetBackend(backendFunc(func(p model.Protocol, c *model.Config, o explore.Options) (*explore.Atlas, bool) {
		calls.Add(1)
		if o.MaxConfigs == slow.MaxConfigs {
			close(entered)
			<-release
		}
		return explore.BuildAtlas(p, c, o)
	}))
	stats := func() [3]int64 {
		h, mi, me := ac.Stats()
		return [3]int64{h, mi, me}
	}

	if _, ok := ac.Cached(pr, root, opt); ok || calls.Load() != 0 || stats() != [3]int64{} {
		t.Fatalf("Cached on an empty cache: ok=%v, backend calls %d, stats %v", ok, calls.Load(), stats())
	}
	built, _ := ac.Get(pr, root, opt)
	if a, ok := ac.Cached(pr, root, opt); !ok || a != built {
		t.Fatal("Cached missed an atlas Get had built")
	}
	if got := stats(); got != [3]int64{1, 1, 0} {
		t.Fatalf("after one build and one Cached hit: stats %v, want [1 1 0]", got)
	}

	ac.Get(pr, root, tiny) // memoized refusal
	if _, ok := ac.Cached(pr, root, tiny); ok {
		t.Fatal("Cached reported a memoized refusal as an atlas")
	}

	done := make(chan struct{})
	go func() { defer close(done); ac.Get(pr, root, slow) }()
	<-entered
	if _, ok := ac.Cached(pr, root, slow); ok {
		t.Fatal("Cached reported a build in flight as an atlas")
	}
	close(release)
	<-done
	if got, want := stats(), [3]int64{1, 3, 0}; got != want || calls.Load() != 3 {
		t.Fatalf("stats %v with %d backend calls, want %v with 3: Cached must not count misses or call the backend", got, calls.Load(), want)
	}
}

// backendFunc adapts a function to explore.AtlasBackend.
type backendFunc func(model.Protocol, *model.Config, explore.Options) (*explore.Atlas, bool)

func (f backendFunc) GetAtlas(pr model.Protocol, root *model.Config, opt explore.Options) (*explore.Atlas, bool) {
	return f(pr, root, opt)
}
