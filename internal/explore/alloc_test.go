package explore_test

// Allocation-regression guard for a whole exploration: the per-visited-
// configuration allocation budget of Explore on a small finite protocol.
// The model-layer guards (internal/model/alloc_test.go) pin the key
// machinery in isolation; this one pins the engine on top — frontier
// growth, successor buffers, interning — so a regression anywhere in the
// level loop (say, successor slices no longer recycling) fails here even
// if each piece still looks fine alone.

import (
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// exploreAllocsPerConfig runs a full budgeted exploration and returns
// allocations per visited configuration.
func exploreAllocsPerConfig(t *testing.T, workers int) float64 {
	t.Helper()
	pr := registryFixture(t, "waitall")
	in := model.Inputs{model.V0, model.V1, model.V0}
	opt := explore.Options{MaxConfigs: 100000, Workers: workers}
	_, visited := explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil)
	if visited == 0 {
		t.Fatal("explored nothing")
	}
	allocs := testing.AllocsPerRun(5, func() {
		explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil)
	})
	return allocs / float64(visited)
}

// TestAllocsExploreSequential pins the sequential engine. The measured
// cost on the waitall(3) fixture is ~105 allocs per visited configuration
// (dominated by successor materialization: states slice, buffer clone,
// protocol state, key build — across every expanded candidate, not just
// the admitted ones); the ceiling leaves headroom for harness noise, not
// for a return of per-candidate string keys, which costs 3-4× more.
func TestAllocsExploreSequential(t *testing.T) {
	per := exploreAllocsPerConfig(t, 1)
	const ceiling = 140
	if per > ceiling {
		t.Fatalf("sequential Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreParallel pins the parallel engine to the same budget
// plus pool overhead: with successor buffers recycled across levels, the
// level-synchronous engine must stay within a few percent of sequential,
// not a multiple of it.
func TestAllocsExploreParallel(t *testing.T) {
	per := exploreAllocsPerConfig(t, 4)
	const ceiling = 150
	if per > ceiling {
		t.Fatalf("parallel Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsBuildAtlas pins the edge-recording walk of the same core: node
// table and CSR growth, interning, the inline successor buffer, plus the
// predecessor CSR and the two backward passes. Measured on the waitall(3)
// fixture: 106.1 allocs per atlas node, the same at every run because one
// worker expands inline, and 115.2 under -race, which the Makefile's race
// targets run this test with; the ceiling leaves room for that and little
// else, so it is the local, sub-second stand-in for the benchmark's
// alloc_mb_per_op bound on the atlas-building workloads.
func TestAllocsBuildAtlas(t *testing.T) {
	pr := registryFixture(t, "waitall")
	root := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V0})
	opt := explore.Options{MaxConfigs: 100000, Workers: 1}
	atlas, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	per := testing.AllocsPerRun(5, func() { explore.BuildAtlas(pr, root, opt) }) / float64(atlas.Len())
	const ceiling = 125
	if per > ceiling {
		t.Fatalf("BuildAtlas allocates %.1f/node, ceiling %d", per, ceiling)
	}
}
