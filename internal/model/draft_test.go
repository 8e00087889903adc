package model_test

import (
	"bytes"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// FuzzDraftMatchesBuild holds a step's draft to the configuration it
// builds, on every applicable event of arbitrary reachable configurations
// of naivemajority(3) and paxos(3): the draft is a no-op exactly when
// Expand returns nil; Hash, before and after Build, is Build().Hash(),
// which is KeyHash and the standard library's FNV-1a of Build().KeyBytes();
// AppendKey is Build().KeyBytes(), and so is the uncached
// Build().AppendKey; an interner holding the parent and every successor
// before the event answers LookupKey(Hash(), AppendKey(nil)) as it answers
// Lookup(Build()); the built child is Expand's; and Same(x) is
// Build().Equal(x) for x the parent and each of the parent's successors.
func FuzzDraftMatchesBuild(f *testing.F) {
	f.Add(byte(3), []byte{0, 1, 2})
	f.Add(byte(1), []byte{})
	f.Add(byte(5), []byte{0, 0, 4, 9})
	f.Add(byte(0x16), []byte{1, 3, 5, 7, 9, 11})
	f.Fuzz(func(t *testing.T, in byte, walk []byte) {
		if len(walk) > 64 {
			t.Skip("walk too long")
		}
		pr := model.Protocol(protocols.NewNaiveMajority(3))
		if in&0x10 != 0 {
			pr = protocols.NewPaxosSynod(3)
		}
		c := walkFrom(t, pr, inputsFrom(in, 3), walk)
		evs := model.Events(c)
		succs := make([]*model.Config, len(evs))
		for i, e := range evs {
			succs[i] = model.Expand(pr, c, e)
		}
		var dr model.Drafter
		seen := model.NewInterner()
		seen.Intern(c)
		for i, e := range evs {
			d := dr.Draft(pr, c, e)
			if (d == nil) != (succs[i] == nil) {
				t.Fatalf("%s: draft is a no-op = %v, Expand returned nil = %v", e, d == nil, succs[i] == nil)
			}
			if d == nil {
				continue
			}
			drafted := d.AppendKey(nil)
			cold := d.Build()
			if uncached := cold.AppendKey([]byte("p")); string(uncached) != "p"+string(drafted) {
				t.Fatalf("%s: uncached Build().AppendKey = %q, draft AppendKey %q", e, uncached, drafted)
			}
			key := cold.KeyBytes()
			if !bytes.Equal(drafted, key) {
				t.Fatalf("%s: draft AppendKey = %q, Build().KeyBytes() = %q", e, drafted, key)
			}
			idKey, okKey := seen.LookupKey(d.Hash(), drafted)
			if id, ok := seen.Lookup(cold); idKey != id || okKey != ok {
				t.Fatalf("%s: LookupKey = (%d, %v), Lookup(Build()) = (%d, %v)", e, idKey, okKey, id, ok)
			}
			if h, want := cold.Hash(), stdFNV(key); h != want || model.KeyHash(key) != want {
				t.Fatalf("%s: Build().Hash() = %#x, KeyHash = %#x, FNV-1a(KeyBytes()) = %#x", e, h, model.KeyHash(key), want)
			}
			if h := d.Hash(); h != cold.Hash() || d.Build().Hash() != h {
				t.Fatalf("%s: draft Hash() = %#x, Build().Hash() = %#x before hashing, %#x after", e, h, cold.Hash(), d.Build().Hash())
			}
			if !modeltest.SameState(cold, succs[i]) {
				t.Fatalf("%s: the draft builds %s, Expand %s", e, cold, succs[i])
			}
			for _, x := range append([]*model.Config{c}, succs...) {
				if x != nil && d.Same(x) != cold.Equal(x) {
					t.Fatalf("%s: Same(%s) = %v, Build().Equal = %v", e, x, d.Same(x), cold.Equal(x))
				}
			}
			seen.Intern(succs[i])
			dr.Reset()
		}
	})
}
