package atlasstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

const testBudget = 3000

func fixture(t *testing.T) (model.Protocol, *model.Config) {
	t.Helper()
	pr := protocols.NewNaiveMajority(3)
	return pr, model.MustInitial(pr, model.Inputs{0, 1, 1})
}

func openStore(t *testing.T, dir string) *atlasstore.Store {
	t.Helper()
	s, err := atlasstore.Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	s.SetLog(t.Logf)
	return s
}

// artifactPath returns the single artifact in dir (the tests work one
// lineage at a time).
func artifactPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.atlas"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one artifact in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// TestStoreRefusals: bounds-refusals mirror BuildAtlas without touching
// disk, and a complete artifact answers an over-budget request as a
// persistent refusal straight from its header.
func TestStoreRefusals(t *testing.T) {
	pr, root := fixture(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	opt := explore.Options{MaxConfigs: testBudget}

	if _, ok := s.GetAtlas(pr, root, explore.Options{MaxConfigs: testBudget, MaxDepth: 3}); ok {
		t.Fatal("store built a depth-bounded atlas; BuildAtlas's contract refuses those")
	}
	if st := s.Stats(); st.Refused != 1 {
		t.Fatalf("stats = %+v, want one refusal", st)
	}

	a, ok := s.GetAtlas(pr, root, opt)
	if !ok {
		t.Fatal("GetAtlas refused a buildable atlas")
	}
	// Over-budget against the now-complete artifact: refusal from the
	// header, artifact untouched.
	before, err := os.ReadFile(artifactPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetAtlas(pr, root, explore.Options{MaxConfigs: a.Len() - 1}); ok {
		t.Fatal("store served an atlas larger than the request's budget")
	}
	if st := s.Stats(); st.Refused != 2 {
		t.Fatalf("stats = %+v, want two refusals", st)
	}
	after, err := os.ReadFile(artifactPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("persistent refusal rewrote the artifact")
	}
}

// TestStoreBudgetResume: a budget-truncated artifact is resumed — not
// rebuilt — when a bigger budget arrives, and the finished atlas matches
// a from-scratch build.
func TestStoreBudgetResume(t *testing.T) {
	pr, root := fixture(t)
	dir := t.TempDir()
	opt := explore.Options{MaxConfigs: testBudget}

	want, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}

	s := openStore(t, dir)
	small := explore.Options{MaxConfigs: want.Len() / 2}
	if _, ok := s.GetAtlas(pr, root, small); ok {
		t.Fatal("store built a complete atlas under half its size budget")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss", st)
	}

	// Same lineage, full budget, fresh store: restore + extend.
	s2 := openStore(t, dir)
	got, ok := s2.GetAtlas(pr, root, opt)
	if !ok {
		t.Fatal("resumed GetAtlas refused a buildable atlas")
	}
	st := s2.Stats()
	if st.Resumes != 1 || st.Misses != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want one resume and one eviction", st)
	}
	if err := enginetest.DiffAtlases(want, got); err != nil {
		t.Fatalf("resumed atlas vs a fresh build: %v", err)
	}
	// The rewritten artifact is complete: next process warm-loads it.
	s3 := openStore(t, dir)
	if _, ok := s3.GetAtlas(pr, root, opt); !ok {
		t.Fatal("extended artifact did not serve a warm load")
	}
	if st := s3.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want one hit", st)
	}
}

// TestStoreDeepenPinsExpansion is the incremental-deepening acceptance
// criterion: extending a depth-d artifact to d+k expands only the new
// depths — pinned by the expansion counter. That the result is a one-shot
// depth-(d+k) exploration's, byte for byte, is
// TestStoreDeepenLooksUpAcrossResume's, at the same d and k.
func TestStoreDeepenPinsExpansion(t *testing.T) {
	pr, root := fixture(t)
	budget := explore.Options{MaxConfigs: testBudget}
	const d, k = 3, 2

	// One-shot reference, no store involved.
	oneshot := explore.NewAtlasBuilder(pr, root)
	oneOpt := budget
	oneOpt.MaxDepth = d + k
	oneTotal := oneshot.Extend(oneOpt)

	s := openStore(t, t.TempDir())
	dOpt := budget
	dOpt.MaxDepth = d
	snapD, stD, err := s.Deepen(pr, root, dOpt)
	if err != nil {
		t.Fatalf("Deepen(d): %v", err)
	}
	if stD.Resumed || stD.Complete {
		t.Fatalf("Deepen(d) stats = %+v, want a fresh truncated exploration", stD)
	}

	dkOpt := budget
	dkOpt.MaxDepth = d + k
	snapDK, stDK, err := s.Deepen(pr, root, dkOpt)
	if err != nil {
		t.Fatalf("Deepen(d+k): %v", err)
	}
	if !stDK.Resumed {
		t.Fatal("Deepen(d+k) did not resume from the stored frontier")
	}
	if stD.NewlyExpanded+stDK.NewlyExpanded != oneTotal {
		t.Fatalf("incremental expanded %d+%d nodes, one-shot expanded %d — depth ≤ d was re-expanded",
			stD.NewlyExpanded, stDK.NewlyExpanded, oneTotal)
	}
	if snapD.Len() >= snapDK.Len() {
		t.Fatalf("deepening did not grow the artifact: %d → %d nodes", snapD.Len(), snapDK.Len())
	}

	// A third Deepen at the same depth is a no-op hit.
	_, st3, err := s.Deepen(pr, root, dkOpt)
	if err != nil {
		t.Fatalf("Deepen(d+k) again: %v", err)
	}
	if st3.NewlyExpanded != 0 || !st3.Resumed {
		t.Fatalf("repeat Deepen stats = %+v, want a zero-expansion resume", st3)
	}

	// Deepening to exhaustion completes, still without re-expanding a
	// stored node, and the artifact then serves GetAtlas warm.
	_, st4, err := s.Deepen(pr, root, budget)
	if err != nil || !st4.Complete {
		t.Fatalf("Deepen to exhaustion: stats %+v, err %v", st4, err)
	}
	if all := explore.NewAtlasBuilder(pr, root).Extend(budget); stD.NewlyExpanded+stDK.NewlyExpanded+st4.NewlyExpanded != all {
		t.Fatalf("three Deepen calls expanded %d+%d+%d nodes, one exhaustive build %d",
			stD.NewlyExpanded, stDK.NewlyExpanded, st4.NewlyExpanded, all)
	}
	s2 := openStore(t, s.Dir())
	if _, ok := s2.GetAtlas(pr, root, budget); !ok {
		t.Fatal("exhausted artifact did not serve a warm GetAtlas")
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want one hit", st)
	}
}

// TestStoreDeepenLooksUpAcrossResume: a resumed Deepen extends rows that
// were decoded from the artifact, where the engine's successor-row lookup
// (Lemma 1's diamond) can match events by message value only. It must still
// fire there — past one step per restored node, the resumed call steps the
// protocol exactly as often as a builder that never left memory, which is
// fewer times than the nodes it expands have events — re-expand nothing,
// and leave the artifact a one-shot run leaves, byte for byte.
func TestStoreDeepenLooksUpAcrossResume(t *testing.T) {
	base, root := fixture(t)
	var steps atomic.Int64
	pr := modeltest.StepCounter{Protocol: base, Steps: &steps}
	const d, k = 3, 2
	shallow := explore.Options{MaxConfigs: testBudget, MaxDepth: d}
	deep := explore.Options{MaxConfigs: testBudget, MaxDepth: d + k}

	oneshot := openStore(t, t.TempDir())
	if _, _, err := oneshot.Deepen(pr, root, deep); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, t.TempDir())
	_, first, err := s.Deepen(pr, root, shallow)
	if err != nil {
		t.Fatal(err)
	}
	steps.Store(0)
	_, second, err := openStore(t, s.Dir()).Deepen(pr, root, deep)
	if err != nil {
		t.Fatal(err)
	}
	resumed := int(steps.Load())
	if reexpanded := second.NewlyExpanded - (second.Expanded - first.Expanded); !second.Resumed || reexpanded != 0 {
		t.Fatalf("resumed Deepen re-expanded %d nodes (resumed=%v)", reexpanded, second.Resumed)
	}

	// The same two calls on a builder that never left memory, whose rows
	// share message records with its configurations: decoding must not
	// cost the resumed call a single lookup.
	b := explore.NewAtlasBuilder(pr, root)
	b.Extend(shallow)
	steps.Store(0)
	b.Extend(deep)
	inMemory := int(steps.Load())
	events := 0
	for _, c := range b.Configs()[first.Expanded:second.Expanded] {
		events += len(model.Events(c))
	}
	if taken := resumed - (first.Nodes - 1); taken != inMemory || taken >= events {
		t.Fatalf("resumed Deepen stepped the protocol %d times past its replay, a live builder %d times, for the %d events of the nodes expanded",
			taken, inMemory, events)
	}

	got, err := os.ReadFile(artifactPath(t, s.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(artifactPath(t, oneshot.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact (%d bytes) differs from the one-shot artifact (%d bytes)", len(got), len(want))
	}
}

// TestStoreCacheIntegration: wired as the AtlasCache backend, the store
// makes the memory → disk → build chain invisible to callers and keeps
// memoized refusals.
func TestStoreCacheIntegration(t *testing.T) {
	pr, root := fixture(t)
	dir := t.TempDir()
	opt := explore.Options{MaxConfigs: testBudget}

	ac := explore.NewAtlasCache()
	ac.SetBackend(openStore(t, dir))
	a1, ok := ac.Get(pr, root, opt)
	if !ok {
		t.Fatal("store-backed cache refused a buildable atlas")
	}
	a2, _ := ac.Get(pr, root, opt)
	if a1 != a2 {
		t.Fatal("second lookup did not come from the memory tier")
	}

	// New cache (same store dir): disk tier answers, no rebuild.
	s2 := openStore(t, dir)
	ac2 := explore.NewAtlasCache()
	ac2.SetBackend(s2)
	if _, ok := ac2.Get(pr, root, opt); !ok {
		t.Fatal("restarted cache refused the persisted atlas")
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restart stats = %+v, want one hit", st)
	}
	// ClassifyRootCached — the serving layer's path — answers from the
	// loaded atlas.
	info := explore.ClassifyRootCached(pr, root, opt, ac2)
	want := explore.Classify(pr, root, opt)
	if info.Valency != want.Valency {
		t.Fatalf("valency %s through store, %s direct", info.Valency, want.Valency)
	}
}

// TestStoreUnwritableDirDegrades: a store whose directory disappears
// still answers every query by building in memory.
func TestStoreUnwritableDirDegrades(t *testing.T) {
	pr, root := fixture(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetAtlas(pr, root, explore.Options{MaxConfigs: testBudget}); !ok {
		t.Fatal("store with a missing directory failed a buildable query")
	}
}
