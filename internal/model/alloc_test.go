package model_test

// Allocation-regression guards for the exploration hot path: the
// dedup-dominated loop of every engine is "materialize a successor, hash
// it, look it up in the visited set". These tests pin the allocs/op of the
// canonical-key machinery with testing.AllocsPerRun, so the zero-alloc
// binary-key work cannot silently rot back into per-candidate string
// building. The matching wall-clock benchmarks live alongside so the
// numbers in EXPERIMENTS.md can be regenerated with
//
//	go test -bench 'BenchmarkIntern|BenchmarkConfigHash' -benchmem ./internal/model
//
// The ceilings are deliberately small integers, not exact counts: an
// alloc-free fast path stays pinned at its ceiling while Go-version noise
// (map internals, testing harness) cannot produce false failures below it.

import (
	"runtime"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// internFixture returns a protocol, a parent configuration with its key
// caches warm (as every frontier node's are by the time it is expanded),
// and one applicable event — the ingredients of one candidate-successor
// materialization.
func internFixture(tb testing.TB) (model.Protocol, *model.Config, model.Event) {
	tb.Helper()
	factory, ok := protocols.Lookup("naivemajority")
	if !ok {
		tb.Fatal("naivemajority not registered")
	}
	pr, err := factory(3)
	if err != nil {
		tb.Fatal(err)
	}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V1})
	// Take two steps so the buffer is non-trivial, like a mid-exploration
	// frontier node.
	c = model.MustApply(pr, c, model.NullEvent(0))
	c = model.MustApply(pr, c, model.NullEvent(1))
	c.Hash() // warm the parent's fingerprint and binary key
	evs := model.Events(c)
	if len(evs) == 0 {
		tb.Fatal("no applicable events")
	}
	return pr, c, evs[len(evs)-1] // a delivery event, the common case
}

// TestAllocsInternHit pins the full dedup-hit path: materialize a
// successor, fingerprint it, and look it up against a visited set that has
// already seen it. This is the single hottest loop of every engine.
func TestAllocsInternHit(t *testing.T) {
	pr, c, e := internFixture(t)
	it := model.NewInterner()
	it.Intern(model.MustApply(pr, c, e)) // seed the visited set
	allocs := testing.AllocsPerRun(200, func() {
		nc := model.MustApply(pr, c, e)
		it.Intern(nc)
	})
	// Materialization costs 11 allocs/op on this fixture (BenchmarkApplyOnly):
	// the protocol's step (state, votes, two broadcast bodies and their
	// slice), the state's key, the two message keys and their records, the
	// process slice, the buffer entries and the config. The key machinery
	// on top costs 2 — the binary key and the pointer that publishes it —
	// because every field it appends is a string the configuration already
	// holds. The interner lookup itself must not allocate, so the ceiling
	// pins materialization + key build (13 measured, also under -race) and
	// nothing else.
	const ceiling = 14
	if allocs > ceiling {
		t.Fatalf("dedup-hit intern path allocates %.1f/op, ceiling %d", allocs, ceiling)
	}
}

// TestAllocsConfigHash pins Config.Hash on a cold configuration: FNV-1a
// streamed over the carried state and message keys, no key built. Measured
// 11, all of them the step, also under -race (13 when Hash built the
// binary key and the pointer that publishes it); the ceiling leaves room
// for one, not for the key.
func TestAllocsConfigHash(t *testing.T) {
	pr, c, e := internFixture(t)
	allocs := testing.AllocsPerRun(200, func() {
		nc := model.MustApply(pr, c, e)
		nc.Hash()
	})
	t.Logf("cold Config.Hash path: %.1f allocs/op", allocs)
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("cold Config.Hash path allocates %.1f/op, ceiling %d", allocs, ceiling)
	}
}

// TestAllocsInternKey pins the transmitted-key dedup path used by the
// distributed engine's visited-set shards: a fingerprint-plus-key lookup
// against an interner that has already seen the key must not allocate at
// all.
func TestAllocsInternKey(t *testing.T) {
	pr, c, e := internFixture(t)
	nc := model.MustApply(pr, c, e)
	h, key := nc.Hash(), nc.KeyBytes()
	it := model.NewInterner()
	it.InternKey(h, key)
	allocs := testing.AllocsPerRun(200, func() {
		it.InternKey(h, key)
	})
	if allocs != 0 {
		t.Fatalf("dedup-hit InternKey allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsInternKeySmallJob pins the arena growth rule: a visited set of
// 400 transmitted keys — one budgeted distributed job — holds well under
// 100 KB of keys. Chunks that start at 1 KiB and double keep the whole
// interner below 256 KiB. The same entries must answer Lookup and Intern by
// configuration: one key namespace.
func TestAllocsInternKeySmallJob(t *testing.T) {
	factory, _ := protocols.Lookup("paxos")
	pr, err := factory(3)
	if err != nil {
		t.Fatal(err)
	}
	const want = 400
	seen := model.NewInterner()
	cfgs := []*model.Config{model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V1})}
	seen.Intern(cfgs[0])
	for i := 0; i < len(cfgs) && len(cfgs) < want; i++ {
		for _, e := range model.Events(cfgs[i]) {
			if nc := model.Expand(pr, cfgs[i], e); nc != nil && len(cfgs) < want {
				if _, fresh := seen.Intern(nc); fresh {
					cfgs = append(cfgs, nc)
				}
			}
		}
	}
	if len(cfgs) != want {
		t.Fatalf("walk found %d configurations, want %d", len(cfgs), want)
	}
	keyBytes := 0
	for _, c := range cfgs {
		c.Hash()
		keyBytes += len(c.KeyBytes())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it := model.NewInterner()
	for _, c := range cfgs {
		if _, fresh := it.InternKey(c.Hash(), c.KeyBytes()); !fresh {
			t.Fatal("distinct configuration reported as seen")
		}
	}
	runtime.ReadMemStats(&after)
	const ceiling = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= ceiling {
		t.Fatalf("interning %d keys (%d key bytes) allocated %d bytes, ceiling %d", want, keyBytes, got, ceiling)
	}
	for _, c := range cfgs {
		if _, ok := it.Lookup(c); !ok {
			t.Fatal("a key interned through InternKey is not found by configuration")
		}
		if _, fresh := it.Intern(c); fresh {
			t.Fatal("Intern re-admitted a configuration InternKey already holds")
		}
	}
}

func BenchmarkApplyOnly(b *testing.B) {
	pr, c, e := internFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model.MustApply(pr, c, e)
	}
}

func BenchmarkConfigHash(b *testing.B) {
	pr, c, e := internFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nc := model.MustApply(pr, c, e)
		nc.Hash()
	}
}

func BenchmarkInternHit(b *testing.B) {
	pr, c, e := internFixture(b)
	it := model.NewInterner()
	it.Intern(model.MustApply(pr, c, e))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nc := model.MustApply(pr, c, e)
		it.Intern(nc)
	}
}
