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
// cost on the waitall(3) fixture is 80.3 allocs per visited configuration
// (89.2 under -race, which the Makefile's race targets run this file
// with), dominated by successor materialization: protocol state, states
// slice, buffer entries, key build — across every expanded candidate, not
// just the admitted ones. The ceiling is the race figure plus one: no room
// for a map-backed buffer (105) or per-candidate string keys (3-4× more).
func TestAllocsExploreSequential(t *testing.T) {
	per := exploreAllocsPerConfig(t, 1)
	const ceiling = 91
	if per > ceiling {
		t.Fatalf("sequential Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreParallel pins the parallel engine to the same budget
// plus pool overhead: with successor buffers recycled across levels, the
// level-synchronous engine must stay within a few percent of sequential,
// not a multiple of it. Measured 82.6, 91.7 under -race.
func TestAllocsExploreParallel(t *testing.T) {
	per := exploreAllocsPerConfig(t, 4)
	const ceiling = 93
	if per > ceiling {
		t.Fatalf("parallel Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsBuildAtlas pins the edge-recording walk of the same core: node
// table and CSR growth, interning, the inline successor buffer, plus the
// predecessor CSR and the two backward passes. Measured on the waitall(3)
// fixture: 81.6 allocs per atlas node, the same at every run because one
// worker expands inline, and 90.9 under -race, which the Makefile's race
// targets run this test with; the ceiling is that plus one, so it is the
// local, sub-second stand-in for the benchmark's alloc_mb_per_op bound on
// the atlas-building workloads.
func TestAllocsBuildAtlas(t *testing.T) {
	pr := registryFixture(t, "waitall")
	root := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V0})
	opt := explore.Options{MaxConfigs: 100000, Workers: 1}
	atlas, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	per := testing.AllocsPerRun(5, func() { explore.BuildAtlas(pr, root, opt) }) / float64(atlas.Len())
	const ceiling = 92
	if per > ceiling {
		t.Fatalf("BuildAtlas allocates %.1f/node, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreBudgeted pins what the pool may waste when the budget
// cuts a wide level: at explore-wide's own shape — onethird(4) from the
// all-zero inputs, 1000 configurations — four workers must allocate within
// 15% of the sequential oracle. Successors expanded and then discarded are
// the only way to exceed that (2.3-2.6× when walk expanded whole levels),
// so this is the local, sub-second stand-in for alloc_mb_per_op on
// explore-wide.
func TestAllocsExploreBudgeted(t *testing.T) {
	pr := registryFixture(t, "onethird")
	root := model.MustInitial(pr, make(model.Inputs, pr.N()))
	run := func(workers int) float64 {
		opt := explore.Options{MaxConfigs: 1000, Workers: workers}
		return testing.AllocsPerRun(5, func() { explore.Explore(pr, root, opt, nil, nil) })
	}
	seq, par := run(1), run(4)
	if par > 1.15*seq {
		t.Fatalf("budgeted Explore allocates %.0f at 4 workers, %.0f sequentially (%.2f×, ceiling 1.15×)", par, seq, par/seq)
	}
}
