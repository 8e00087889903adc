package explore_test

// The core answers part of every successor row from rows it has already
// closed (core.expand: Lemma 1's commuting diamond and the no-op nulls a
// node inherits from its tree parent) instead of stepping the protocol.
// These tests hold that rule to the protocol: every edge it records is
// re-derived with a real step, every null it drops is re-checked, and every
// situation in which it must fall back is compared against
// explore.ReferenceExplore, which steps everything and looks nothing up.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// sameAsReference holds ExploreFiltered, inline and on the pool, to the
// reference loop's stream under the same inputs, and returns that stream.
func sameAsReference(t *testing.T, ctx string, pr model.Protocol, root *model.Config, opt explore.Options, skip func(model.Event) bool) enginetest.Stream {
	t.Helper()
	walk := func(engine exploreFunc, opt explore.Options) enginetest.Stream {
		s, _ := enginetest.Record(0, func(visit explore.Visit) (bool, int, error) {
			complete, visited := engine(pr, root, opt, skip, visit)
			return complete, visited, nil
		})
		return s
	}
	ref := walk(explore.ReferenceExplore, opt)
	for _, w := range []int{1, 2, 3, 4, 8} {
		if err := enginetest.DiffStreams(ref, walk(explore.ExploreFiltered, withWorkers(opt, w))); err != nil {
			t.Fatalf("%s workers=%d: %v", ctx, w, err)
		}
	}
	return ref
}

// auditRows re-derives every successor row b has closed from the protocol
// alone: walking node u's applicable events in canonical order, an event
// with a recorded edge must step to exactly the edge's target, and one
// without must be a null event that is a no-op at u. It returns how many
// edges and dropped nulls it checked.
func auditRows(t *testing.T, ctx string, pr model.Protocol, b *explore.AtlasBuilder) (edges, nulls int) {
	t.Helper()
	snap, cfgs := b.Snapshot(), b.Configs()
	for u := 0; u < snap.Expanded(); u++ {
		i, end := snap.SuccStart[u], snap.SuccStart[u+1]
		for _, e := range model.Events(cfgs[u]) {
			if i < end && snap.SuccVia[i].Same(e) {
				if nc := model.Expand(pr, cfgs[u], e); nc == nil || !nc.Equal(cfgs[snap.SuccTo[i]]) {
					t.Fatalf("%s: edge %d -%s-> %d is not what the protocol steps to", ctx, u, e, snap.SuccTo[i])
				}
				i++
				edges++
				continue
			}
			if !e.IsNull() || !model.IsNoOp(pr, cfgs[u], e) {
				t.Fatalf("%s: node %d has no edge for %s, which is not a no-op", ctx, u, e)
			}
			nulls++
		}
		if i != end {
			t.Fatalf("%s: node %d records %d edges its events do not account for", ctx, u, end-i)
		}
	}
	return edges, nulls
}

// auditBuild builds root's graph with edges at workers 1 and 8 under opt,
// audits every row, and holds the tables to each other and to the
// reference stream ref (a builder stops at a node boundary where the
// reference admits until full, so its table may be a prefix).
func auditBuild(t *testing.T, ctx string, pr model.Protocol, root *model.Config, opt explore.Options, ref enginetest.Stream) (edges, nulls int) {
	t.Helper()
	var first *explore.AtlasSnapshot
	for _, w := range []int{1, 8} {
		b := explore.NewAtlasBuilder(pr, root)
		b.Extend(withWorkers(opt, w))
		edges, nulls = auditRows(t, fmt.Sprintf("%s workers=%d", ctx, w), pr, b)
		got, _ := enginetest.Record(0, func(visit explore.Visit) (bool, int, error) { return walkBuilder(b, visit) })
		if err := enginetest.DiffStreams(ref, got); err != nil {
			t.Fatalf("%s workers=%d: builder: %v", ctx, w, err)
		}
		snap := b.Snapshot()
		if first == nil {
			first = snap
		} else {
			snapshotsEqual(t, ctx+": workers 8 vs 1", first, snap)
		}
	}
	return edges, nulls
}

// TestDiamondRuleEdgesAreSteps is E1's CheckCommutativity run on every
// diamond the engine took: for every registry protocol and every protogen
// fixture — complete where 3,000 configurations allow, budget-cut otherwise
// — each recorded edge and each dropped null is re-derived by stepping the
// protocol, and the visit stream, counts and node table are the reference
// loop's. A protocol whose Step is not a function of (state, message) fails
// here.
func TestDiamondRuleEdgesAreSteps(t *testing.T) {
	opt := explore.Options{MaxConfigs: 3000}
	audit := func(name string, pr model.Protocol, in model.Inputs) {
		t.Run(name, func(t *testing.T) {
			root := model.MustInitial(pr, in)
			ref := sameAsReference(t, name, pr, root, opt, nil)
			edges, nulls := auditBuild(t, name, pr, root, opt, ref)
			t.Logf("%d configurations: %d edges re-derived, %d dropped nulls re-checked", len(ref.Visits), edges, nulls)
			if edges == 0 {
				t.Fatal("no edge recorded")
			}
		})
	}
	eachKernelAndFixture(t, audit)
}

// eachKernelAndFixture calls fn for every registry protocol (at its
// expandKernels size, alternating inputs) and for each of the 20 committed
// protogen fixtures (its own inputs).
func eachKernelAndFixture(t *testing.T, fn func(name string, pr model.Protocol, in model.Inputs)) {
	t.Helper()
	for _, name := range protocols.Names() {
		factory, _ := protocols.Lookup(name)
		pr, err := factory(expandKernels[name])
		if err != nil {
			t.Fatal(err)
		}
		in := make(model.Inputs, pr.N())
		for p := range in {
			in[p] = model.Value(p & 1)
		}
		fn(name, pr, in)
	}
	for _, c := range enginetest.Corpus(t) {
		pr, _ := c.MustResolve(t)
		fn(c.Name, pr, c.Inputs)
	}
}

// TestDiamondRuleFires pins what the rule saves at explore-wide's own
// shape — onethird(4) from the all-zero inputs, 1,000 configurations: one
// worker steps the protocol 1,585 times where the reference loop steps it
// 3,063 times. The pool adds only the chunk it speculates past the budget
// (TestSpeculationBoundedByOneChunk bounds that).
func TestDiamondRuleFires(t *testing.T) {
	var steps atomic.Int64
	pr := modeltest.StepCounter{Protocol: registryFixture(t, "onethird"), Steps: &steps}
	root := model.MustInitial(pr, make(model.Inputs, pr.N()))
	opt := explore.Options{MaxConfigs: 1000}
	explore.ReferenceExplore(pr, root, opt, nil, nil)
	reference := steps.Load()
	for _, w := range []int{1, 2, 8} {
		steps.Store(0)
		explore.Explore(pr, root, withWorkers(opt, w), nil, nil)
		t.Logf("workers=%d: %d protocol steps, reference %d", w, steps.Load(), reference)
		if w == 1 && (reference != 3063 || steps.Load() != 1585) {
			t.Fatalf("one worker took %d protocol steps against the reference's %d, pinned 1585 against 3063", steps.Load(), reference)
		}
	}
}

// TestDiamondRuleFallbacks drives the rule into every situation where rows
// cannot answer and it has to step instead — or must not answer from a row
// that is not there — and holds the result to the reference loop.
func TestDiamondRuleFallbacks(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	wide := protocols.NewOneThirdRule(4)
	wideRoot := model.MustInitial(wide, model.Inputs{0, 1, 1, 0})

	// Lemma 3's avoided event: rows lack it everywhere, so a sibling it
	// would have led to is never there to look up.
	t.Run("avoid", func(t *testing.T) {
		for _, e := range model.Events(root) {
			if !e.IsNull() || !model.IsNoOp(pr, root, e) {
				sameAsReference(t, e.String(), pr, root, explore.Options{}, explore.AvoidFilter(&e))
			}
		}
	})
	// Lemma 2's dead process: every event of one process is filtered, so a
	// null missing from the parent's row may be filtered, not a no-op.
	t.Run("dead-process", func(t *testing.T) {
		for dead := 0; dead < pr.N(); dead++ {
			skip := func(e model.Event) bool { return int(e.P) == dead }
			sameAsReference(t, fmt.Sprintf("p%d dead", dead), pr, root, explore.Options{}, skip)
			sameAsReference(t, fmt.Sprintf("wide, p%d dead", dead), wide, wideRoot, explore.Options{MaxConfigs: 700}, skip)
		}
	})
	// Every budget across the first levels: without edges the ledger is
	// truncated in the middle of some node's row, and the nodes admitted
	// before it are visited but never expanded; with edges the node whose
	// fresh successors do not fit is refused whole.
	t.Run("budget", func(t *testing.T) {
		for budget := 1; budget <= 90; budget++ {
			opt := explore.Options{MaxConfigs: budget}
			ctx := fmt.Sprintf("budget %d", budget)
			ref := sameAsReference(t, ctx, pr, root, opt, nil)
			auditBuild(t, ctx, pr, root, opt, ref)
			ref = sameAsReference(t, "wide, "+ctx, wide, wideRoot, opt, nil)
			auditBuild(t, "wide, "+ctx, wide, wideRoot, opt, ref)
		}
	})
	// A root that is not an initial configuration (CensusLemma3's C): it
	// has a buffer and a history, but no parent row.
	t.Run("non-initial-root", func(t *testing.T) {
		c := wideRoot
		for i := 0; i < 5; i++ {
			evs := modeltest.EffectfulEvents(wide, c)
			c = model.MustApply(wide, c, evs[(3*i+1)%len(evs)])
		}
		opt := explore.Options{MaxConfigs: 1200}
		ref := sameAsReference(t, "after five steps", wide, c, opt, nil)
		auditBuild(t, "after five steps", wide, c, opt, ref)
	})
}

// decoded returns a deep copy of snap whose events point at fresh message
// copies, as a snapshot read back from disk does: nothing in it shares a
// message record with any live configuration.
func decoded(snap *explore.AtlasSnapshot) *explore.AtlasSnapshot {
	cp := *snap
	fresh := func(evs []model.Event) []model.Event {
		out := make([]model.Event, len(evs))
		for i, e := range evs {
			if out[i].P = e.P; e.Msg != nil {
				m := *e.Msg
				out[i].Msg = &m
			}
		}
		return out
	}
	cp.ParentVia, cp.SuccVia = fresh(snap.ParentVia), fresh(snap.SuccVia)
	cp.Depth = append([]int32(nil), snap.Depth...)
	cp.Parent = append([]int32(nil), snap.Parent...)
	cp.SuccStart = append([]int32(nil), snap.SuccStart...)
	cp.SuccTo = append([]int32(nil), snap.SuccTo...)
	return &cp
}

// TestDiamondRuleOnRestoredBuilder covers the rows a restored builder
// resumes on: their events were decoded, so only message values match, and
// the rule must still fire across the restore boundary — the resumed table
// is the one-shot table, every row audits, and extending it steps the
// protocol exactly as often as extending the builder that never left memory
// (fewer times than one per event, that is).
func TestDiamondRuleOnRestoredBuilder(t *testing.T) {
	var steps atomic.Int64
	pr := modeltest.StepCounter{Protocol: protocols.NewOneThirdRule(4), Steps: &steps}
	root := model.MustInitial(pr, model.Inputs{0, 1, 1, 0})
	for _, w := range []int{1, 8} {
		half, full := withWorkers(explore.Options{MaxConfigs: 400}, w), withWorkers(explore.Options{MaxConfigs: 1500}, w)
		live := explore.NewAtlasBuilder(pr, root)
		live.Extend(half)
		restored, err := explore.RestoreAtlasBuilder(pr, root, decoded(live.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		from := restored.Expanded()
		steps.Store(0)
		live.Extend(full)
		inMemory := steps.Swap(0)
		restored.Extend(full)
		taken := steps.Load()

		ctx := fmt.Sprintf("workers=%d", w)
		snapshotsEqual(t, ctx+": restored and extended vs never persisted", live.Snapshot(), restored.Snapshot())
		auditRows(t, ctx, pr, restored)
		events := int64(0)
		for _, c := range restored.Configs()[from:restored.Expanded()] {
			events += int64(len(model.Events(c)))
		}
		t.Logf("%s: %d protocol steps for the %d events of nodes %d..%d", ctx, taken, events, from, restored.Expanded())
		if taken != inMemory || taken >= events {
			t.Fatalf("%s: extending the restored builder took %d protocol steps, the live builder %d, for %d events", ctx, taken, inMemory, events)
		}
	}
}
