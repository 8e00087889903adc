package explore_test

import (
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// The engine's contract is byte-identical results for every worker count,
// equal to the reference loop's. These differential tests pin that contract
// for each seed protocol: every report the checker stack produces must be
// deeply equal between Workers: 1 (the core, inline) and Workers: 8 (the
// pool), including witness schedules, visit counts, and truncation flags;
// and the raw visit streams, node tables and counts are held to
// explore.ReferenceExplore — the sequential oracle, which shares neither
// the core's loop nor its diamond rule.

// determinismCases covers every seed protocol. Unbounded state spaces
// (paxos, benor) and large finite ones (3pc, onethird) run under a budget,
// which additionally exercises truncation determinism at the boundary. The
// last seven are the explore-wide shapes at budgets that cut a level in the
// middle, where the level path expands in ledger-sized chunks.
func determinismCases(t *testing.T) []struct {
	name string
	pr   model.Protocol
	opt  explore.Options
} {
	t.Helper()
	mk := func(name string, n int) model.Protocol {
		factory, ok := protocols.Lookup(name)
		if !ok {
			t.Fatalf("protocol %q not registered", name)
		}
		pr, err := factory(n)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	return []struct {
		name string
		pr   model.Protocol
		opt  explore.Options
	}{
		{"trivial0", mk("trivial0", 3), explore.Options{}},
		{"waitall", mk("waitall", 3), explore.Options{}},
		{"naivemajority", mk("naivemajority", 3), explore.Options{}},
		{"2pc", mk("2pc", 3), explore.Options{}},
		{"3pc-budget", mk("3pc", 3), explore.Options{MaxConfigs: 2000}},
		{"paxos-budget", mk("paxos", 3), explore.Options{MaxConfigs: 600}},
		{"benor-budget", mk("benor", 3), explore.Options{MaxConfigs: 600}},
		{"naivemajority-depth4", mk("naivemajority", 3), explore.Options{MaxDepth: 4}},
		{"naivemajority-budget137", mk("naivemajority", 3), explore.Options{MaxConfigs: 137}},
		{"naivemajority4-budget60", mk("naivemajority", 4), explore.Options{MaxConfigs: 60}},
		{"naivemajority4-budget400", mk("naivemajority", 4), explore.Options{MaxConfigs: 400}},
		{"naivemajority4-budget1000", mk("naivemajority", 4), explore.Options{MaxConfigs: 1000}},
		{"paxos-budget60", mk("paxos", 3), explore.Options{MaxConfigs: 60}},
		{"paxos-budget400", mk("paxos", 3), explore.Options{MaxConfigs: 400}},
		{"paxos-budget1000", mk("paxos", 3), explore.Options{MaxConfigs: 1000}},
		{"onethird4-budget1000", mk("onethird", 4), explore.Options{MaxConfigs: 1000}},
	}
}

// caseRoot is the initial configuration the case-driven tests start from:
// inputs 0,1,1 (and 0 for a fourth process).
func caseRoot(pr model.Protocol) *model.Config {
	return model.MustInitial(pr, model.Inputs{0, 1, 1, 0}[:pr.N()])
}

// exploreFunc is the signature ReferenceExplore and ExploreFiltered share.
type exploreFunc func(model.Protocol, *model.Config, explore.Options, func(model.Event) bool, explore.Visit) (bool, int)

func withWorkers(opt explore.Options, w int) explore.Options {
	opt.Workers = w
	return opt
}

func TestParallelCountReachableMatchesSequential(t *testing.T) {
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := caseRoot(tc.pr)
			seqCount, seqExact := explore.CountReachable(tc.pr, c, withWorkers(tc.opt, 1))
			parCount, parExact := explore.CountReachable(tc.pr, c, withWorkers(tc.opt, 8))
			if seqCount != parCount || seqExact != parExact {
				t.Errorf("CountReachable diverged: sequential (%d, %v), 8 workers (%d, %v)",
					seqCount, seqExact, parCount, parExact)
			}
		})
	}
}

func TestParallelValencyMatchesSequential(t *testing.T) {
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, in := range model.AllInputs(tc.pr.N()) {
				c := model.MustInitial(tc.pr, in)
				seq := explore.Classify(tc.pr, c, withWorkers(tc.opt, 1))
				par := explore.Classify(tc.pr, c, withWorkers(tc.opt, 8))
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("inputs %s: ValencyInfo diverged:\n sequential: %+v\n 8 workers:  %+v", in, seq, par)
				}
			}
		})
	}
}

func TestParallelPartialCorrectnessMatchesSequential(t *testing.T) {
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := explore.CheckPartialCorrectness(tc.pr, withWorkers(tc.opt, 1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := explore.CheckPartialCorrectness(tc.pr, withWorkers(tc.opt, 8))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("PartialCorrectnessReport diverged:\n sequential: %+v\n 8 workers:  %+v", seq, par)
			}
		})
	}
}

// TestBuilderPrefixMatchesSequential holds the level-synchronous core's
// edge-recording walk to the sequential oracle: under each case's bounds
// the nodes a builder admits are, entry by entry, the first Len() entries
// of the oracle's visit stream (the builder stops at a clean node boundary,
// the oracle admits until full, so the builder's table is a prefix), and
// bounds reached in two Extend calls leave the same table as one call.
// BuildAtlas, the same walk finished, answers exactly when the oracle
// completed, with one node per oracle visit.
func TestBuilderPrefixMatchesSequential(t *testing.T) {
	type step struct {
		key   string
		depth int32
		via   model.Event
	}
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := caseRoot(tc.pr)
			var oracle []step
			complete, _ := explore.ReferenceExplore(tc.pr, c, tc.opt, nil,
				func(cfg *model.Config, depth int, path func() model.Schedule) bool {
					st := step{key: string(cfg.KeyBytes()), depth: int32(depth)}
					if depth > 0 {
						st.via = path()[depth-1]
					}
					oracle = append(oracle, st)
					return false
				})
			half := tc.opt
			half.MaxConfigs = (len(oracle) + 1) / 2
			half.MaxDepth = tc.opt.MaxDepth / 2
			for _, w := range []int{1, 2, 4, 8} {
				atlas, ok := explore.BuildAtlas(tc.pr, c, withWorkers(tc.opt, w))
				if ok != (complete && tc.opt.MaxDepth == 0) || (ok && atlas.Len() != len(oracle)) {
					t.Fatalf("workers=%d: BuildAtlas ok=%v, oracle visited %d (complete=%v)", w, ok, len(oracle), complete)
				}
				one := explore.NewAtlasBuilder(tc.pr, c)
				one.Extend(withWorkers(tc.opt, w))
				snap := one.Snapshot()
				if snap.Len() > len(oracle) || one.Complete() != complete {
					t.Fatalf("workers=%d: builder admitted %d nodes (complete=%v), oracle visited %d (complete=%v)",
						w, snap.Len(), one.Complete(), len(oracle), complete)
				}
				for i := 0; i < snap.Len(); i++ {
					got := step{key: string(snap.Keys[i]), depth: snap.Depth[i], via: snap.ParentVia[i]}
					if got.key != oracle[i].key || got.depth != oracle[i].depth || !got.via.Same(oracle[i].via) {
						t.Fatalf("workers=%d: node %d diverged from the oracle's visit %d", w, i, i)
					}
				}
				two := explore.NewAtlasBuilder(tc.pr, c)
				n := two.Extend(withWorkers(half, w))
				n += two.Extend(withWorkers(tc.opt, w))
				if n != one.Expanded() {
					t.Fatalf("workers=%d: split Extend expanded %d nodes, one call %d", w, n, one.Expanded())
				}
				snapshotsEqual(t, "split Extend vs one call", snap, two.Snapshot())
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

// TestParallelGeneratedProtocolsMatchSequential runs the same
// differential over generated protocols: a spread of protogen seeds per
// template, visit streams held to the reference loop at every worker count
// (matchReference), valency compared between Workers 1 and 8.
// The generator reaches transition-table shapes (sparse tables, dead
// phases, asymmetric decision rules) that no hand-written seed protocol
// exercises, so this is where worker-count nondeterminism around unusual
// fan-out would surface first.
func TestParallelGeneratedProtocolsMatchSequential(t *testing.T) {
	for _, tmpl := range []string{protogen.TemplateTable, protogen.TemplateBenOr} {
		for seed := uint64(1); seed <= 5; seed++ {
			d := protogen.DefaultDials(3)
			d.Template = tmpl
			if tmpl == protogen.TemplateBenOr {
				d.N, d.MaxRound = 2, 1
			}
			sp := protogen.Derive(seed, d)
			t.Run(sp.Name(), func(t *testing.T) {
				pr := protogen.MustNew(sp)
				in := make(model.Inputs, sp.N)
				for p := range in {
					in[p] = model.Value(p & 1)
				}
				c := model.MustInitial(pr, in)
				opt := explore.Options{MaxConfigs: 1500}
				matchReference(t, sp.Name(), pr, c, opt, nil)
				seqV := explore.Classify(pr, c, withWorkers(opt, 1))
				parV := explore.Classify(pr, c, withWorkers(opt, 8))
				if !reflect.DeepEqual(seqV, parV) {
					t.Errorf("ValencyInfo diverged:\n sequential: %+v\n 8 workers:  %+v", seqV, parV)
				}
			})
		}
	}
}

// TestParallelExploreOrderMatchesSequential compares the raw visit
// streams of every case with the reference loop's (matchReference):
// configuration keys, depths, and reconstructed paths must agree position by
// position, and so must the count and the completeness flag — which is
// stronger than any aggregate report.
func TestParallelExploreOrderMatchesSequential(t *testing.T) {
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			matchReference(t, tc.name, tc.pr, caseRoot(tc.pr), tc.opt, nil)
		})
	}
}
