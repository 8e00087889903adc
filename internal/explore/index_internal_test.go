package explore

import (
	"fmt"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestNodeIndexCollisions drives the node index through its growth with
// fingerprints that cannot tell nodes apart: every node under one
// fingerprint, and every node under a distinct fingerprint equal to the
// others modulo every table size the index reaches. After each insert find
// must return each member's own id — only same can say which — and refuse
// a non-member probed under a colliding fingerprint.
func TestNodeIndexCollisions(t *testing.T) {
	const nodes = 300 // grows the table from 16 to 1,024 slots
	for _, tc := range []struct {
		name string
		fp   func(i int) uint64
	}{
		{"one fingerprint", func(int) uint64 { return 0x9e3779b97f4a7c15 }},
		{"equal modulo table size", func(i int) uint64 { return uint64(i+1)<<40 | 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var x nodeIndex
			vals := make([]string, 0, nodes) // node id → the node's value
			find := func(h uint64, v string) (int32, bool) {
				return x.find(h, func(id int32) bool { return vals[id] == v })
			}
			for i := 0; i < nodes; i++ {
				vals = append(vals, fmt.Sprintf("node %d", i))
				x.insert(tc.fp(i), int32(i))
				for j := 0; j <= i; j++ {
					if id, ok := find(tc.fp(j), vals[j]); !ok || id != int32(j) {
						t.Fatalf("after %d inserts (%d slots): find(node %d) = (%d, %v)", i+1, len(x.slots), j, id, ok)
					}
				}
				if id, ok := find(tc.fp(i), "not a node"); ok {
					t.Fatalf("after %d inserts: a non-member was found as node %d", i+1, id)
				}
			}
			if len(x.slots) < 2*nodes {
				t.Fatalf("%d nodes in %d slots: the table must double at half load", nodes, len(x.slots))
			}
			if _, ok := (&nodeIndex{}).find(tc.fp(0), func(int32) bool { return true }); ok {
				t.Fatal("an empty index found a node")
			}
		})
	}
}

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
		a.index.insert(stranger.Hash(), 0)
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
	c := newCore(pr, model.MustInitial(pr, make(model.Inputs, 4)), nil, false)
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
