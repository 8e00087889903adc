package model_test

import (
	"bytes"
	"hash/fnv"
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// walkFrom drives pr from the given inputs through a walk chosen by the
// byte string: each byte selects one applicable effectful event. It
// returns the final configuration.
func walkFrom(t testing.TB, pr model.Protocol, in model.Inputs, steps []byte) *model.Config {
	if t != nil {
		t.Helper()
	}
	cfg := model.MustInitial(pr, in)
	for _, b := range steps {
		var evs []model.Event
		for _, e := range model.Events(cfg) {
			if e.IsNull() && model.IsNoOp(pr, cfg, e) {
				continue
			}
			evs = append(evs, e)
		}
		if len(evs) == 0 {
			break
		}
		cfg = model.MustApply(pr, cfg, evs[int(b)%len(evs)])
	}
	return cfg
}

// inputsFrom derives an input assignment for n processes from one byte.
func inputsFrom(b byte, n int) model.Inputs {
	in := make(model.Inputs, n)
	for p := 0; p < n; p++ {
		if b&(1<<p) != 0 {
			in[p] = model.V1
		}
	}
	return in
}

// stdFNV is the hash contract's right-hand side computed by the standard
// library: FNV-1a over the built key.
func stdFNV(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// checkHashContract holds Hash() == FNV-1a(KeyBytes()) on two fresh copies
// of one configuration: one hashed before its key is built, one after,
// and holds KeyHash of the key to the same value.
func checkHashContract(t *testing.T, fresh func() *model.Config) {
	t.Helper()
	cold := fresh()
	hCold := cold.Hash()
	keyed := fresh()
	key := keyed.KeyBytes()
	want := stdFNV(key)
	if hKeyed := keyed.Hash(); hCold != want || hKeyed != want {
		t.Fatalf("Hash() = %#x before the key is built, %#x after; FNV-1a(KeyBytes()) = %#x\n%s", hCold, hKeyed, want, keyed)
	}
	if got := model.KeyHash(key); got != want {
		t.Fatalf("KeyHash(KeyBytes()) = %#x, FNV-1a = %#x", got, want)
	}
}

// FuzzConfigKeyHash asserts, for arbitrary pairs of reachable
// configurations, that the key and the hash/intern layer agree exactly with
// the definition of a configuration: equal KeyBytes ⇔ SameState(a, b) ⇔
// Equal(a, b), SameState implies equal hashes, the streamed hash is the
// standard library's FNV-1a of the key whether or not the key was built
// first, and the interner assigns equal IDs exactly to the same
// configurations.
func FuzzConfigKeyHash(f *testing.F) {
	f.Add(byte(3), []byte{0, 1, 2}, byte(3), []byte{2, 1, 0})
	f.Add(byte(1), []byte{}, byte(1), []byte{})
	f.Add(byte(5), []byte{0, 0, 4, 9}, byte(2), []byte{7})
	f.Add(byte(6), []byte{1, 3, 5, 7, 9, 11}, byte(6), []byte{1, 3, 5, 7, 9, 11})
	f.Fuzz(func(t *testing.T, ina byte, wa []byte, inb byte, wb []byte) {
		if len(wa) > 64 || len(wb) > 64 {
			t.Skip("walk too long")
		}
		pr := protocols.NewNaiveMajority(3)
		checkHashContract(t, func() *model.Config { return walkFrom(t, pr, inputsFrom(ina, 3), wa) })
		checkHashContract(t, func() *model.Config { return walkFrom(t, pr, inputsFrom(inb, 3), wb) })
		a := walkFrom(t, pr, inputsFrom(ina, 3), wa)
		b := walkFrom(t, pr, inputsFrom(inb, 3), wb)

		same := modeltest.SameState(a, b)
		if keyEq := bytes.Equal(a.KeyBytes(), b.KeyBytes()); keyEq != same {
			t.Fatalf("KeyBytes equal = %v but SameState = %v\n a: %s\n b: %s", keyEq, same, a, b)
		}
		if eq := a.Equal(b); eq != same {
			t.Fatalf("Equal = %v but SameState = %v\n a: %s\n b: %s", eq, same, a, b)
		}
		if same && a.Hash() != b.Hash() {
			t.Fatalf("equal configurations with different hashes: %#x vs %#x", a.Hash(), b.Hash())
		}

		it := model.NewInterner()
		ida, fresha := it.Intern(a)
		idb, freshb := it.Intern(b)
		if !fresha {
			t.Fatal("first Intern not fresh")
		}
		if freshb == same {
			t.Fatalf("Intern(b) fresh = %v with SameState = %v", freshb, same)
		}
		if (ida == idb) != same {
			t.Fatalf("interned IDs %d, %d; equal IDs = %v but SameState = %v", ida, idb, ida == idb, same)
		}
		if id, again := it.Intern(a); again || id != ida {
			t.Fatalf("re-Intern(a) = (%d, %v), want (%d, false)", id, again, ida)
		}
		if id, ok := it.LookupKey(b.Hash(), b.KeyBytes()); !ok || id != idb {
			t.Fatalf("LookupKey(b) = (%d, %v), want (%d, true)", id, ok, idb)
		}
		wantLen := 2
		if same {
			wantLen = 1
		}
		if it.Len() != wantLen {
			t.Fatalf("interner Len = %d, want %d", it.Len(), wantLen)
		}
	})
}

// bufferSnapshot captures the live contents of a configuration's buffer so
// that later mutations through aliased state would be visible.
func bufferSnapshot(c *model.Config) map[model.Message]int {
	snap := make(map[model.Message]int)
	for _, m := range c.Buffer().Messages() {
		snap[m] = c.Buffer().Count(m)
	}
	return snap
}

func sameSnapshot(a, b map[model.Message]int) bool {
	if len(a) != len(b) {
		return false
	}
	for m, n := range a {
		if b[m] != n {
			return false
		}
	}
	return true
}

// carriesStateKeys checks the carried-key invariant: the key a configuration
// holds beside each state is that state's Key().
func carriesStateKeys(t *testing.T, what string, c *model.Config) {
	t.Helper()
	for p := 0; p < c.N(); p++ {
		if got, want := c.StateKey(model.PID(p)), c.State(model.PID(p)).Key(); got != want {
			t.Fatalf("%s: process %d carries state key %q, State.Key() is %q", what, p, got, want)
		}
	}
}

// TestWithStepNoAliasing drives every applicable event out of a family of
// configurations and checks that producing (and further extending) a
// successor never mutates the parent or a sibling: what they share — the
// untouched states, their keys, the message records — is never written.
// This is the property the interner and the parallel explorer rest on — an
// interned configuration must never change after the fact. Parent and
// children alike carry their states' keys, and an event enumerated from
// the parent before its descendants existed still names a message of the
// parent afterwards.
func TestWithStepNoAliasing(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	for _, walk := range [][]byte{{}, {0}, {1, 2}, {0, 3, 1}, {2, 2, 2, 2}, {5, 1, 4, 2, 8}} {
		parent := walkFrom(t, pr, model.Inputs{0, 1, 1}, walk)
		parentSnap := bufferSnapshot(parent)
		parentStates := make([]string, parent.N())
		for p := 0; p < parent.N(); p++ {
			parentStates[p] = parent.State(model.PID(p)).Key()
		}

		carriesStateKeys(t, "parent", parent)

		// Derive every effectful successor, then extend each successor
		// further; neither derivation may disturb the parent or siblings.
		var children []*model.Config
		var childSnaps []map[model.Message]int
		var via []model.Event
		var sent []model.Message // what each delivery event named when enumerated
		for _, e := range model.Events(parent) {
			if e.IsNull() && model.IsNoOp(pr, parent, e) {
				continue
			}
			child := model.MustApply(pr, parent, e)
			carriesStateKeys(t, "child", child)
			children = append(children, child)
			childSnaps = append(childSnaps, bufferSnapshot(child))
			via = append(via, e)
			if e.Msg != nil {
				sent = append(sent, *e.Msg)
			} else {
				sent = append(sent, model.Message{})
			}
		}
		for _, child := range children {
			for _, e := range model.Events(child) {
				if e.IsNull() && model.IsNoOp(pr, child, e) {
					continue
				}
				model.MustApply(pr, child, e) // grandchildren, discarded
			}
		}

		if !sameSnapshot(parentSnap, bufferSnapshot(parent)) {
			t.Fatalf("walk %v: deriving successors mutated the parent buffer", walk)
		}
		for p := 0; p < parent.N(); p++ {
			if parent.State(model.PID(p)).Key() != parentStates[p] {
				t.Fatalf("walk %v: deriving successors mutated parent state %d", walk, p)
			}
		}
		for i, child := range children {
			if !sameSnapshot(childSnaps[i], bufferSnapshot(child)) {
				t.Fatalf("walk %v: extending one sibling mutated another's buffer", walk)
			}
			e := via[i]
			if e.Msg != nil && (*e.Msg != sent[i] || !model.Applicable(parent, e)) {
				t.Fatalf("walk %v: event %s taken from the parent no longer names its message %s", walk, e, sent[i])
			}
			if again := model.MustApply(pr, parent, e); !again.Equal(child) {
				t.Fatalf("walk %v: re-applying %s to the parent gives a different child", walk, e)
			}
		}
	}
}

// TestHashInternAgreementOnReachableSet sweeps a breadth-first prefix of
// naivemajority's reachable set and checks hash/intern agreement with
// SameState across every pair, including genuine duplicates reached by
// different schedules.
func TestHashInternAgreementOnReachableSet(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})

	// Plain breadth-first enumeration, keeping duplicates (capped).
	queue := []*model.Config{root}
	var all []*model.Config
	for len(queue) > 0 && len(all) < 400 {
		c := queue[0]
		queue = queue[1:]
		all = append(all, c)
		for _, e := range model.Events(c) {
			if e.IsNull() && model.IsNoOp(pr, c, e) {
				continue
			}
			queue = append(queue, model.MustApply(pr, c, e))
		}
	}

	it := model.NewInterner()
	ids := make([]uint64, len(all))
	for i, c := range all {
		ids[i], _ = it.Intern(c)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			same := modeltest.SameState(all[i], all[j])
			if eq := all[i].Equal(all[j]); eq != same {
				t.Fatalf("configs %d, %d: Equal = %v, SameState = %v", i, j, eq, same)
			}
			if (ids[i] == ids[j]) != same {
				t.Fatalf("configs %d, %d: id equality = %v, SameState = %v", i, j, ids[i] == ids[j], same)
			}
			if same && all[i].Hash() != all[j].Hash() {
				t.Fatalf("configs %d, %d: same state, hashes %#x vs %#x", i, j, all[i].Hash(), all[j].Hash())
			}
		}
	}
	if it.Len() > len(all) {
		t.Fatalf("interner Len %d exceeds configurations interned %d", it.Len(), len(all))
	}
}

// TestInternerKeyCollision interns two different keys under one forced
// fingerprint: the index offers each as the other's candidate, and only the
// key comparison may tell them apart. Both are fresh, get distinct IDs and
// are found again under their own.
func TestInternerKeyCollision(t *testing.T) {
	const h = 0x9e3779b97f4a7c15
	keys := [][]byte{[]byte("first key"), []byte("second key")}
	it := model.NewInterner()
	var ids [2]uint64
	for i, k := range keys {
		var fresh bool
		if ids[i], fresh = it.InternKey(h, k); !fresh {
			t.Fatalf("key %q under a shared fingerprint reported as seen", k)
		}
	}
	if ids[0] == ids[1] {
		t.Fatalf("two different keys share ID %d", ids[0])
	}
	for i, k := range keys {
		if id, fresh := it.InternKey(h, k); fresh || id != ids[i] {
			t.Fatalf("key %q again = (%d, %v), want (%d, false)", k, id, fresh, ids[i])
		}
	}
	if it.Len() != 2 {
		t.Fatalf("Len = %d, want 2", it.Len())
	}
}

// TestInternerConcurrent hammers one interner from many goroutines over an
// overlapping set of configurations: every goroutine must observe the same
// ID for the same configuration, and the table must end up with exactly
// the distinct count. Run under -race this also checks the table's
// locking.
func TestInternerConcurrent(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	var cfgs []*model.Config
	queue := []*model.Config{root}
	for len(queue) > 0 && len(cfgs) < 120 {
		c := queue[0]
		queue = queue[1:]
		cfgs = append(cfgs, c)
		for _, e := range model.Events(c) {
			if e.IsNull() && model.IsNoOp(pr, c, e) {
				continue
			}
			queue = append(queue, model.MustApply(pr, c, e))
		}
	}
	distinct := make(map[string]bool)
	for _, c := range cfgs {
		distinct[string(c.KeyBytes())] = true
	}

	it := model.NewInterner()
	const goroutines = 8
	got := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint64, len(cfgs))
			for round := 0; round < 3; round++ {
				for i := range cfgs {
					// Vary traversal order per goroutine (rotation).
					j := (i + g*17) % len(cfgs)
					id, _ := it.Intern(cfgs[j])
					ids[j] = id
				}
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range cfgs {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw id %d for config %d, goroutine 0 saw %d", g, got[g][i], i, got[0][i])
			}
		}
	}
	if it.Len() != len(distinct) {
		t.Fatalf("interner Len = %d, distinct configurations = %d", it.Len(), len(distinct))
	}
}

// TestInternerReset pins what a long-lived owner — a cluster worker, job
// after job — relies on when it empties its visited set instead of building
// another: after Reset nothing interned before is found, Len is zero, the
// same keys intern as fresh with the IDs a new interner would give them, and
// refilling costs at most one allocation per key and nothing else — no
// arena chunk, no table (the index's slots and the key column are kept, so
// the refill itself allocates nothing). Goroutines intern concurrently on
// either side of the reset, which under -race checks that Reset takes the
// lock.
func TestInternerReset(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	seen := map[string]bool{}
	var cfgs []*model.Config
	for queue := []*model.Config{model.MustInitial(pr, model.Inputs{0, 1, 1})}; len(queue) > 0 && len(cfgs) < 120; queue = queue[1:] {
		c := queue[0]
		if seen[string(c.KeyBytes())] {
			continue
		}
		seen[string(c.KeyBytes())] = true
		cfgs = append(cfgs, c)
		for _, e := range model.Events(c) {
			if nc := model.Expand(pr, c, e); nc != nil {
				queue = append(queue, nc)
			}
		}
	}
	internAll := func(it *model.Interner) []uint64 {
		ids := make([]uint64, len(cfgs))
		for i, c := range cfgs {
			var fresh bool
			if ids[i], fresh = it.InternKey(c.Hash(), c.KeyBytes()); !fresh {
				t.Fatalf("configuration %d reported as seen", i)
			}
		}
		return ids
	}

	it := model.NewInterner()
	first := internAll(it)
	it.Reset()
	if it.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", it.Len())
	}
	for i, c := range cfgs {
		if _, ok := it.LookupKey(c.Hash(), c.KeyBytes()); ok {
			t.Fatalf("configuration %d interned before Reset is still found", i)
		}
	}
	for i, id := range internAll(it) {
		if id != first[i] {
			t.Fatalf("configuration %d got ID %d after Reset, %d in a new interner", i, id, first[i])
		}
	}
	if it.Len() != len(cfgs) {
		t.Fatalf("Len = %d after refilling, want %d", it.Len(), len(cfgs))
	}

	refill := testing.AllocsPerRun(20, func() { it.Reset(); internAll(it) })
	fresh := testing.AllocsPerRun(20, func() { internAll(model.NewInterner()) })
	// internAll allocates its ID slice; the limit allows one more per key.
	if limit := float64(len(cfgs) + 1); refill > limit {
		t.Errorf("refilling after Reset allocates %.0f times for %d keys, want at most %.0f", refill, len(cfgs), limit)
	}
	if fresh <= refill {
		t.Errorf("a new interner allocates %.0f times, a reset one %.0f: Reset keeps nothing", fresh, refill)
	}

	concurrently := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range cfgs {
					c := cfgs[(i+g*17)%len(cfgs)]
					it.InternKey(c.Hash(), c.KeyBytes())
				}
			}(g)
		}
		wg.Wait()
	}
	concurrently()
	it.Reset()
	concurrently()
	if it.Len() != len(cfgs) {
		t.Fatalf("Len = %d after concurrent refill, want %d", it.Len(), len(cfgs))
	}
}
