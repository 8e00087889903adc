package explore_test

// Allocation-regression guard for a whole exploration: the per-visited-
// configuration allocation budget of Explore on a small finite protocol.
// The model-layer guards (internal/model/alloc_test.go) pin the key
// machinery in isolation; this one pins the engine on top — frontier
// growth, successor buffers, interning — so a regression anywhere in the
// level loop (say, successor slices no longer recycling) fails here even
// if each piece still looks fine alone.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// warmWalks is how many walks a guard of a warm exploration measures, and
// the least reading is the warm one. An exploration draws its table from a
// sync.Pool, which may hand it none: under -race it drops a random quarter
// of the tables put back, and a goroutine that moved to another P misses
// the one its last walk left, which the guards rule out by measuring at
// GOMAXPROCS 1, as testing.AllocsPerRun does. Under -race a reading is
// then cold about four times in ten (measured), so all of them are with
// odds under one in a million.
const warmWalks = 16

// warmest returns the least of warmWalks readings of measure.
func warmest(measure func() float64) float64 {
	least := measure()
	for i := 1; i < warmWalks; i++ {
		least = min(least, measure())
	}
	return least
}

// exploreAllocsPerConfig runs a full budgeted exploration and returns
// allocations per visited configuration of a warm walk.
func exploreAllocsPerConfig(t *testing.T, workers int) float64 {
	t.Helper()
	pr := registryFixture(t, "waitall")
	in := model.Inputs{model.V0, model.V1, model.V0}
	opt := explore.Options{MaxConfigs: 100000, Workers: workers}
	_, visited := explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil)
	if visited == 0 {
		t.Fatal("explored nothing")
	}
	allocs := warmest(func() float64 {
		return testing.AllocsPerRun(1, func() { explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil) })
	})
	t.Logf("%d workers: %.1f allocs per visited configuration", workers, allocs/float64(visited))
	return allocs / float64(visited)
}

// TestAllocsExploreSequential pins the engine at one worker (the core,
// expanding inline). The measured cost of a warm walk on the waitall(3)
// fixture is 12.0 allocs per visited configuration, the same under -race
// (which the Makefile's race targets run this file with), dominated by the
// protocol step — state and its key — for every candidate stepped, and by
// building — process and buffer-entry slices, records, Config — for the
// ones the table lacks. The ceiling is that plus one, rounded up: no room
// for a map or a formatted key anywhere on the path (80.3 when votes were
// maps and keys went through fmt), nor for stepping the candidates the
// diamond rule reads off successor rows (37.4 when every event was
// stepped), nor for building a binary key per candidate and interning it
// (21.4 before the hash was streamed and the core indexed its own node
// table), nor for building the candidates that duplicate a node (15.8
// before steps were drafted and looked up first), nor for growing a node
// table per walk (12.9 before explorations recycled their tables).
func TestAllocsExploreSequential(t *testing.T) {
	per := exploreAllocsPerConfig(t, 1)
	const ceiling = 13
	if per > ceiling {
		t.Fatalf("sequential Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreParallel pins the parallel engine to the same budget
// plus pool overhead: with successor buffers recycled across levels, the
// level-synchronous engine must stay within a few percent of sequential,
// not a multiple of it. Measured 13.1 on a warm walk, the same under -race
// (23.4 with a key built and interned per candidate, 17.8 with every
// candidate built, 15.5 with a node table and pool grown per walk, 13.8
// with fresh goroutines, their closures, a WaitGroup and a panics slice per
// level instead of one job for long-lived helpers).
func TestAllocsExploreParallel(t *testing.T) {
	per := exploreAllocsPerConfig(t, 4)
	const ceiling = 14
	if per > ceiling {
		t.Fatalf("parallel Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsBuildAtlas pins the edge-recording walk of the same core: node
// table, index and CSR growth, the inline successor buffer, plus the
// predecessor CSR and the two backward passes. Measured on the waitall(3)
// fixture: 13.8 allocs per atlas node, 13.9 under -race, which the
// Makefile's race targets run this test with (22.2 when the core interned
// a built key per candidate, 16.8 when it built every candidate), the same
// at every run because one worker expands inline; the ceiling is that plus
// one, rounded up, so it is the local, sub-second stand-in for the
// benchmark's alloc_mb_per_op bound on the atlas-building workloads.
func TestAllocsBuildAtlas(t *testing.T) {
	pr := registryFixture(t, "waitall")
	root := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V0})
	opt := explore.Options{MaxConfigs: 100000, Workers: 1}
	atlas, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("BuildAtlas refused within budget")
	}
	per := testing.AllocsPerRun(5, func() { explore.BuildAtlas(pr, root, opt) }) / float64(atlas.Len())
	t.Logf("%.1f allocs per atlas node", per)
	const ceiling = 15
	if per > ceiling {
		t.Fatalf("BuildAtlas allocates %.1f/node, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreBudgeted pins what the pool may waste when the budget
// cuts a wide level: at explore-wide's own shape — onethird(4) from the
// all-zero inputs, 1000 configurations — four workers must allocate within
// 15% of one worker expanding inline. Successors expanded and then discarded
// are the only way to exceed that (2.3-2.6× when walk expanded whole levels),
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

// TestAllocsExploreBytesPerConfig pins the bytes a warm exploration
// allocates per admitted configuration at explore-wide's own shape —
// onethird(4) from the all-zero inputs, 1,000 configurations — inline and
// on four workers. The configurations are what a walk allocates: protocol
// states, their keys, buffers and Config records; the node table, index,
// successor rows and buffers and the expansion scratch are the last walk's
// (core.go's tables). Measured 888 bytes inline and 969 on four workers,
// 894 and 981–995 under -race (which worker drafts which node decides how
// far the recycled buffers grow); the ceilings are 5 % over the larger
// reading. A walk on a table that is not recycled reads 1,171 and 1,340,
// as every walk did before tables.
func TestAllocsExploreBytesPerConfig(t *testing.T) {
	pr := registryFixture(t, "onethird")
	root := model.MustInitial(pr, make(model.Inputs, pr.N()))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct{ workers, ceiling int }{{1, 939}, {4, 1045}} {
		opt := explore.Options{MaxConfigs: 1000, Workers: tc.workers}
		explore.Explore(pr, root, opt, nil, nil) // fill the pool
		per := warmest(func() float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, visited := explore.Explore(pr, root, opt, nil, nil)
			runtime.ReadMemStats(&after)
			if visited != 1000 {
				t.Fatalf("admitted %d configurations, want 1000", visited)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(visited)
		})
		t.Logf("%d workers: %.0f bytes per admitted configuration", tc.workers, per)
		if per > float64(tc.ceiling) {
			t.Errorf("%d workers: a warm exploration allocates %.0f bytes per configuration, ceiling %d", tc.workers, per, tc.ceiling)
		}
	}
}

// firstConfigs returns the configurations an exploration of pr from in
// admits under a budget of n, in visit order.
func firstConfigs(pr model.Protocol, in model.Inputs, n int) []*model.Config {
	var nodes []*model.Config
	explore.Explore(pr, model.MustInitial(pr, in), explore.Options{MaxConfigs: n, Workers: 1}, nil,
		func(c *model.Config, _ int, _ func() model.Schedule) bool {
			nodes = append(nodes, c)
			return false
		})
	return nodes
}

// TestAllocsBytesPerSuccessor pins the bytes one generated successor costs
// at explore-wide's own shape: AppendSuccessors over the 1,000
// configurations a budgeted exploration of onethird(4) admits from the
// all-zero inputs. The guards above count objects; this change-sensitive
// number is bytes — a child buffer that copies its parent's messages
// instead of pointing at them, or a state that clones its inbox instead of
// sharing it, allocates hardly any more objects and twice the bytes (2,080
// per successor before buffers shared message records and states carried
// their keys, 999 while Hash built the binary key). Measured 744, 749
// under -race; the ceiling is 5 % over.
func TestAllocsBytesPerSuccessor(t *testing.T) {
	pr := registryFixture(t, "onethird")
	nodes := firstConfigs(pr, make(model.Inputs, pr.N()), 1000)
	buf := make([]explore.Successor, 0, 64)
	succs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range nodes {
		buf = explore.AppendSuccessors(pr, c, nil, buf)
		succs += len(buf)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(succs)
	t.Logf("%d successors of %d configurations: %.0f bytes each", succs, len(nodes), per)
	const ceiling = 785
	if len(nodes) != 1000 || per > ceiling {
		t.Fatalf("a successor allocates %.0f bytes over %d configurations, ceiling %d over 1000", per, len(nodes), ceiling)
	}
}

// TestAllocsCacheHit pins a valency cache hit to what building the queried
// configuration costs: Classify of a configuration Equal to a memoized one
// but built apart from it fingerprints it and settles the hit on its
// fields, so it allocates what its MustApply does and nothing more — no
// key is built, nothing is copied out of the memo.
func TestAllocsCacheHit(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	e := model.Events(root)[0]
	cache := explore.NewCache(pr, explore.Options{})
	memoized := cache.Classify(model.MustApply(pr, root, e))
	built := testing.AllocsPerRun(200, func() { model.MustApply(pr, root, e) })
	hit := testing.AllocsPerRun(200, func() {
		if got := cache.Classify(model.MustApply(pr, root, e)); got.Valency != memoized.Valency {
			t.Fatalf("a memo hit answers %s, the memo holds %s", got.Valency, memoized.Valency)
		}
	})
	t.Logf("a memo hit allocates %.1f/op; MustApply %.1f", hit, built)
	if hit > built {
		t.Fatalf("a memo hit allocates %.1f/op, MustApply %.1f", hit, built)
	}
	if hits, misses := cache.Stats(); misses != 1 || hits < 200 {
		t.Fatalf("stats hits=%d misses=%d: the built copies were not answered from the memo", hits, misses)
	}
}

// expandKernels sizes every registry protocol for BenchmarkExpand: the four
// explore-wide kernels at the benchmark's own sizes, the rest at three.
var expandKernels = map[string]int{
	"2pc": 3, "3pc": 3, "trivial0": 3, "waitall": 3,
	"naivemajority": 4, "onethird": 4, "paxos": 3, "benor": 3,
}

// BenchmarkExpand is the cost of one generated successor — protocol step,
// child configuration, fingerprint: AppendSuccessors over the first 300
// configurations of each registry kernel, reported per successor. It is the
// per-kernel view of explore.successors_ns and alloc_mb_per_op on
// explore-wide; `make bench-alloc` and CI (at -benchtime 1x) run it.
func BenchmarkExpand(b *testing.B) {
	for _, name := range protocols.Names() {
		n, ok := expandKernels[name]
		if !ok {
			b.Fatalf("registry protocol %q has no size; extend expandKernels", name)
		}
		factory, _ := protocols.Lookup(name)
		pr, err := factory(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s%d", name, n), func(b *testing.B) {
			in := make(model.Inputs, n)
			for p := range in {
				in[p] = model.Value(p % 2)
			}
			nodes := firstConfigs(pr, in, 300)
			var buf []explore.Successor
			succs := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range nodes {
					buf = explore.AppendSuccessors(pr, c, nil, buf)
					succs += len(buf)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(succs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/succ")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/succ")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/succ")
		})
	}
}

// BenchmarkExplorePool is one pass of the benchmark's explore-wide pool —
// every input vector of naivemajority(4), onethird(4), paxos(3) and
// benor(3), 48 explorations of 1,000 configurations each — inline and on
// the pool at GOMAXPROCS workers: ns, B and allocs per pass. It is the
// engine-level view of ops_per_s and alloc_mb_per_op on explore-wide;
// `make bench-alloc` and CI (at -benchtime 1x) run it.
func BenchmarkExplorePool(b *testing.B) {
	type op struct {
		pr   model.Protocol
		root *model.Config
	}
	var ops []op
	for _, k := range []string{"naivemajority", "onethird", "paxos", "benor"} {
		factory, _ := protocols.Lookup(k)
		pr, err := factory(expandKernels[k])
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range model.AllInputs(pr.N()) {
			ops = append(ops, op{pr, model.MustInitial(pr, in)})
		}
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, o := range ops {
					if _, visited := explore.Explore(o.pr, o.root, explore.Options{MaxConfigs: 1000, Workers: w}, nil, nil); visited != 1000 {
						b.Fatalf("visited %d configurations, want 1000", visited)
					}
				}
			}
		})
	}
}

// narrowKernels are the small, complete graphs of lemma-pipeline's census
// and correctness ops: every input vector explored to the end, on levels
// 4–64 configurations wide.
var narrowKernels = []struct {
	name string
	n    int
}{{"waitall", 3}, {"2pc", 4}, {"3pc", 4}, {"naivemajority", 3}}

// narrowProtocol builds one of narrowKernels.
func narrowProtocol(tb testing.TB, name string, n int) model.Protocol {
	tb.Helper()
	factory, _ := protocols.Lookup(name)
	pr, err := factory(n)
	if err != nil {
		tb.Fatal(err)
	}
	return pr
}

// TestAllocsPoolNarrow pins what the pool costs in bytes on a narrow graph:
// CheckPartialCorrectness's walk of every root of 2pc(4), whose levels are
// a few configurations wide, at two workers as a ratio of one worker
// expanding inline. (The check itself spends its workers on roots, not
// levels; see TestAllocsRootLoops.) The pool sees fewer duplicates before building
// them than inline expansion does (core.expand: the nodes of its own chunk
// are not admitted yet), so it builds more; nothing else it does may
// allocate per node or per level. Read at GOMAXPROCS 1, as the guards
// above are. Measured 1.19× (1.29× when every level started fresh
// goroutines); the ceiling is that plus a margin. The ratio is read only
// without -race: the race detector makes sync.Pool drop Puts, so the two
// sides reuse different shares of the recycled tables and the ratio
// wandered over 1.13–1.30× from run to run. make alloc-guards runs it
// without -race.
func TestAllocsPoolNarrow(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops Puts at random, so the ratio measures the pool's luck")
	}
	pr := narrowProtocol(t, "2pc", 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	walk := func(opt explore.Options) {
		for _, in := range model.AllInputs(pr.N()) {
			if !explore.CheckRoot(pr, in, opt) {
				t.Fatal("2pc(4) did not close")
			}
		}
	}
	inline, pool := rootLoopBytes(walk, 1), rootLoopBytes(walk, 2)
	t.Logf("inline %.0f B, 2 workers %.0f B (%.2f×)", inline, pool, pool/inline)
	const ceiling = 1.25
	if pool > ceiling*inline {
		t.Fatalf("2pc(4) at 2 workers allocates %.0f B, inline %.0f B (%.2f×, ceiling %.2f×)", pool, inline, pool/inline, ceiling)
	}
}

// rootLoopBytes is the bytes run allocates at workers, the least of
// warmest's runs after one that fills the pool.
func rootLoopBytes(run func(explore.Options), workers int) float64 {
	opt := explore.Options{Workers: workers}
	run(opt)
	return warmest(func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(opt)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	})
}

// TestAllocsRootLoops pins what spending the workers on roots costs in
// bytes: CheckPartialCorrectness of 2pc(4) and CensusInitial of 3pc(4) at
// two workers, whose roots are walked inline on the caller and a helper,
// as a ratio of one worker walking them in turn. Only the loop's own
// bookkeeping (one job, a slot per root) may be added. Read at GOMAXPROCS
// 1, as TestAllocsPoolNarrow is. Measured 1.007× and 1.005×, the same under
// -race; roots walked on the level pool instead would read about 1.2×, as
// TestAllocsPoolNarrow does. The ceiling is the measurement plus a margin.
func TestAllocsRootLoops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check, census := narrowProtocol(t, "2pc", 4), narrowProtocol(t, "3pc", 4)
	for _, loop := range []struct {
		name string
		run  func(explore.Options)
	}{
		{"CheckPartialCorrectness(2pc(4))", func(o explore.Options) {
			if rep, err := explore.CheckPartialCorrectness(check, o); err != nil || !rep.Complete {
				t.Fatalf("2pc(4) did not close: %v", err)
			}
		}},
		{"CensusInitial(3pc(4))", func(o explore.Options) {
			if ic, err := explore.CensusInitial(census, o); err != nil || !ic.AllExact {
				t.Fatalf("3pc(4) census not exact: %v", err)
			}
		}},
	} {
		inline, roots := rootLoopBytes(loop.run, 1), rootLoopBytes(loop.run, 2)
		t.Logf("%s: 1 worker %.0f B, 2 workers %.0f B (%.3f×)", loop.name, inline, roots, roots/inline)
		const ceiling = 1.05
		if roots > ceiling*inline {
			t.Fatalf("%s at 2 workers allocates %.0f B, at 1 worker %.0f B (%.3f×, ceiling %.2f×)", loop.name, roots, inline, roots/inline, ceiling)
		}
	}
}

// BenchmarkExploreNarrow is the three root loops of lemma-pipeline —
// CheckPartialCorrectness, CensusInitial and FindBivalentInitial — over
// the narrowKernels, at one worker and at GOMAXPROCS workers spent on
// roots: ns, B and allocs per loop. It is the engine-level view of
// lemma-pipeline's correctness, census, lemma3 and diamond ops (the last
// two start from FindBivalentInitial); `make bench-alloc`, `make
// bench-parallel` and CI (at -benchtime 1x) run it.
func BenchmarkExploreNarrow(b *testing.B) {
	loops := []struct {
		name string
		run  func(model.Protocol, explore.Options) error
	}{
		{"CheckPartialCorrectness", func(pr model.Protocol, o explore.Options) error {
			if rep, err := explore.CheckPartialCorrectness(pr, o); err != nil || !rep.Complete {
				return fmt.Errorf("did not close: %v", err)
			}
			return nil
		}},
		{"CensusInitial", func(pr model.Protocol, o explore.Options) error {
			_, err := explore.CensusInitial(pr, o)
			return err
		}},
		{"FindBivalentInitial", func(pr model.Protocol, o explore.Options) error {
			explore.FindBivalentInitial(pr, o)
			return nil
		}},
	}
	for _, loop := range loops {
		for _, k := range narrowKernels {
			pr := narrowProtocol(b, k.name, k.n)
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%s/%s%d/workers=%d", loop.name, k.name, k.n, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := loop.run(pr, explore.Options{Workers: w}); err != nil {
							b.Fatalf("%s%d: %v", k.name, k.n, err)
						}
					}
				})
			}
		}
	}
}
