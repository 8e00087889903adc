package explore

import (
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestAtlasIDOfConfirmsHits plants a fingerprint collision in both kinds of
// atlas index — a configuration that is no node, indexed under its own
// fingerprint as node 0 — and requires IDOf to refuse it: a built atlas
// settles the hit on node 0's configuration, a loaded one on node 0's
// persisted key.
func TestAtlasIDOfConfirmsHits(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	built, ok := BuildAtlas(pr, root, Options{})
	if !ok {
		t.Fatal("atlas refused to build")
	}
	loaded, err := LoadAtlas(pr, root, built.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	stranger := model.MustInitial(protocols.NewNaiveMajority(4), make(model.Inputs, 4))
	for kind, a := range map[string]*Atlas{"built": built, "loaded": loaded} {
		if _, ok := a.IDOf(root); !ok { // a loaded atlas fills its index here
			t.Fatalf("%s: the root is not found", kind)
		}
		a.index.Insert(stranger.Hash(), 0)
		if id, ok := a.IDOf(stranger); ok {
			t.Fatalf("%s: a fingerprint hit on node %d was taken without comparing", kind, id)
		}
	}
}

// TestAllocsNodeIndexHit pins a dedup hit on the core's index — a
// successor that is already a node — to zero allocations: the index holds
// no keys and the comparison closure stays on the stack.
func TestAllocsNodeIndexHit(t *testing.T) {
	pr := protocols.NewOneThirdRule(4)
	c := new(core)
	c.init(pr, model.MustInitial(pr, make(model.Inputs, 4)), nil)
	c.walk(0, Options{MaxConfigs: 200, Workers: 1}, nil)
	last := c.Len() - 1
	dup := model.MustApply(pr, c.cfgs[c.g.Parent[last]], c.g.ParentVia[last]) // equal to the node, not the node
	dup.Hash()
	allocs := testing.AllocsPerRun(200, func() {
		if id, ok := c.lookup(dup); !ok || int(id) != last {
			t.Fatalf("lookup of node %d's configuration = (%d, %v)", last, id, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("a node index hit allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsDuplicateCandidate pins what a step costs when it duplicates a
// node: core.step drafts it, fingerprints it and finds the node without
// building anything, so it allocates what the protocol step itself does —
// Protocol.Step and the new state's key, 4 on this fixture — and nothing
// more: no Config, process slice, buffer entries, records or message keys.
func TestAllocsDuplicateCandidate(t *testing.T) {
	pr := protocols.NewOneThirdRule(4)
	c := new(core)
	c.init(pr, model.MustInitial(pr, make(model.Inputs, 4)), nil)
	c.walk(0, Options{MaxConfigs: 200, Workers: 1}, nil)
	for u := c.Len() - 1; u > 0; u-- {
		parent, e := c.cfgs[c.g.Parent[u]], c.g.ParentVia[u]
		if e.IsNull() {
			continue // take a delivery, the common case
		}
		var sc scratch
		step := func() {
			if s, ok := c.step(&sc, parent, e); !ok || s.cfg != nil || int(s.to) != u {
				t.Fatalf("stepping node %d's tree edge = (%v, %v), want the node itself", u, s, ok)
			}
		}
		step() // grow the scratch
		got := testing.AllocsPerRun(200, step)
		bare := testing.AllocsPerRun(200, func() {
			ns, _ := pr.Step(e.P, parent.State(e.P), e.Msg)
			_ = ns.Key()
		})
		t.Logf("a duplicate step allocates %.1f/op; Protocol.Step and State.Key %.1f", got, bare)
		if got > bare {
			t.Fatalf("a duplicate step allocates %.1f/op, Protocol.Step and State.Key %.1f", got, bare)
		}
		return
	}
	t.Fatal("no delivery edge in the table")
}

// TestCacheClassifyConfirmsHits plants a memo entry for one configuration
// under another's fingerprint and requires Classify of the other to answer
// for itself: a fingerprint hit is settled by Config.Equal on the memoized
// configuration, so the planted entry costs a comparison and a miss, never
// a wrong classification.
func TestCacheClassifyConfirmsHits(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	a := model.MustInitial(pr, model.Inputs{0, 0, 0})
	b := model.MustInitial(pr, model.Inputs{1, 1, 1})
	vc := NewCache(pr, Options{})
	infoA, want := Classify(pr, a, vc.opt), Classify(pr, b, vc.opt)
	if infoA.Valency == want.Valency {
		t.Fatalf("a and b are both %s: the plant could not be told apart", want.Valency)
	}
	vc.index.Insert(b.Hash(), 0)
	vc.memo = append(vc.memo, memoEntry{cfg: a, info: infoA})
	if got := vc.Classify(b); got.Valency != want.Valency || got.Exact != want.Exact {
		t.Fatalf("Classify(b) = %s/%v, want b's %s/%v (a's entry is %s)", got.Valency, got.Exact, want.Valency, want.Exact, infoA.Valency)
	}
	if hits, misses := vc.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 0, 1: a fingerprint hit was taken without comparing", hits, misses)
	}
	if vc.Len() != 2 {
		t.Fatalf("Len = %d, want 2: b is memoized beside the plant", vc.Len())
	}
}
