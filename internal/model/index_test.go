package model

import (
	"fmt"
	"testing"
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
			var x Index
			vals := make([]string, 0, nodes) // node id → the node's value
			find := func(h uint64, v string) (int32, bool) {
				return x.Find(h, func(id int32) bool { return vals[id] == v })
			}
			for i := 0; i < nodes; i++ {
				vals = append(vals, fmt.Sprintf("node %d", i))
				x.Insert(tc.fp(i), int32(i))
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
			if _, ok := (&Index{}).Find(tc.fp(0), func(int32) bool { return true }); ok {
				t.Fatal("an empty index found a node")
			}
		})
	}
}
