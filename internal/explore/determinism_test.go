package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// The engine's contract is byte-identical results for every worker count,
// equal to the reference loop's, for every observable and every report the
// checker stack builds on them.

// exploreFunc is the signature ReferenceExplore and ExploreFiltered share.
type exploreFunc func(model.Protocol, *model.Config, explore.Options, func(model.Event) bool, explore.Visit) (bool, int)

func withWorkers(opt explore.Options, w int) explore.Options {
	opt.Workers = w
	return opt
}

// TestEngineSuite runs the case table through ExploreFiltered and through
// the atlas builder, each at one worker (inline expansion) and on pools of
// several: the builder reaches each case's bounds in two Extend calls, a
// shallower and smaller one first, must leave the table and expansion count
// one call leaves, and answers with the finished atlas or with the table it
// stopped at.
func TestEngineSuite(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("explore/workers=%d", w), func(t *testing.T) {
			enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
				pr, root := c.MustResolve(t)
				complete, visited := explore.ExploreFiltered(pr, root, withWorkers(c.Options, w), explore.AvoidFilter(c.Avoid), visit)
				return complete, visited, nil
			})
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("builder/workers=%d", w), func(t *testing.T) {
			enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
				if !c.Atlasable() {
					return false, 0, enginetest.ErrRefused
				}
				pr, root := c.MustResolve(t)
				first := withWorkers(c.Options, w)
				first.MaxConfigs = first.Normalized().MaxConfigs / 2
				if first.MaxDepth == 0 || first.MaxDepth > 2 {
					first.MaxDepth = 2
				}
				b := explore.NewAtlasBuilder(pr, root)
				n := b.Extend(first)
				n += b.Extend(withWorkers(c.Options, w))
				one := explore.NewAtlasBuilder(pr, root)
				one.Extend(withWorkers(c.Options, w))
				if n != one.Expanded() {
					t.Fatalf("two Extend calls expanded %d nodes, one call %d", n, one.Expanded())
				}
				snapshotsEqual(t, "two Extend calls vs one", one.Snapshot(), b.Snapshot())
				if a, ok := b.Finish(); ok {
					return enginetest.WalkAtlas(pr, c.Options, a, 1, visit)
				}
				return walkBuilder(b, visit)
			})
		})
	}
}

// TestValencySuite holds Classify on the pool to the reference's inline
// Classify on every case root a valency query can name.
func TestValencySuite(t *testing.T) {
	enginetest.ValencySuite(t, func(t *testing.T, c enginetest.Case) enginetest.Valency {
		pr, root := c.MustResolve(t)
		return enginetest.ValencyOf(explore.Classify(pr, root, withWorkers(c.Options, 8)))
	})
}

// walkBuilder visits b's node table in admission order: a builder stops at
// a node boundary, so an incomplete one answers ErrShort.
func walkBuilder(b *explore.AtlasBuilder, visit explore.Visit) (bool, int, error) {
	snap, cfgs := b.Snapshot(), b.Configs()
	for i := range snap.Len() {
		visit(cfgs[i], int(snap.Depth[i]), func() model.Schedule { return snap.PathTo(i) })
	}
	if !b.Complete() {
		return false, snap.Len(), enginetest.ErrShort
	}
	return true, snap.Len(), nil
}

// reportCases is the registry protocols' part of the case table, reduced
// to what the checkers' reports depend on — protocol, size and bounds —
// since the reports sweep every input themselves.
func reportCases(t *testing.T) []enginetest.Case {
	var out []enginetest.Case
	seen := map[string]bool{}
	for _, c := range enginetest.Cases(t) {
		key := fmt.Sprint(c.Protocol, c.N, c.Options)
		if !protogen.IsGenerated(c.Protocol) && len(c.Prefix) == 0 && c.Atlasable() && !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// TestParallelReportsMatchSequential holds the valency of every initial
// configuration and the partial-correctness report to be deeply equal at one
// worker and on the pool.
func TestParallelReportsMatchSequential(t *testing.T) {
	for _, tc := range reportCases(t) {
		t.Run(tc.Name, func(t *testing.T) {
			pr, _ := tc.MustResolve(t)
			for _, in := range model.AllInputs(pr.N()) {
				c := model.MustInitial(pr, in)
				seq := explore.Classify(pr, c, withWorkers(tc.Options, 1))
				par := explore.Classify(pr, c, withWorkers(tc.Options, 8))
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("inputs %s: ValencyInfo diverged:\n sequential: %+v\n 8 workers:  %+v", in, seq, par)
				}
			}
			seq, err := explore.CheckPartialCorrectness(pr, withWorkers(tc.Options, 1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := explore.CheckPartialCorrectness(pr, withWorkers(tc.Options, 8))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("PartialCorrectnessReport diverged:\n sequential: %+v\n 8 workers:  %+v", seq, par)
			}
		})
	}
}

// TestParallelLemma3MatchesSequential pins the frontier census — the
// primitive under the Theorem 1 adversary — across worker counts,
// including the witness schedule Sigma.
func TestParallelLemma3MatchesSequential(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c, _, ok := explore.FindBivalentInitial(pr, explore.Options{Workers: 1})
	if !ok {
		t.Fatal("no bivalent initial configuration")
	}
	for _, e := range model.Events(c) {
		if e.IsNull() && model.IsNoOp(pr, c, e) {
			continue
		}
		seq, err := explore.CensusLemma3(pr, c, e, explore.Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		par, err := explore.CensusLemma3(pr, c, e, explore.Options{Workers: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("event %s: Lemma3Result diverged:\n sequential: %+v\n 8 workers:  %+v", e, seq, par)
		}
	}
}
