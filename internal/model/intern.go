package model

import (
	"bytes"
	"sync"
)

// The key arena is a chain of chunks that interned keys are copied into
// back to back. Chunks double from internArenaMin to internArenaMax: a
// visited set of a million configurations still costs a few thousand
// allocations of key storage rather than a million, and one of a few
// hundred (a budgeted distributed job) clears kilobytes rather than
// megabytes.
const (
	internArenaMin = 1 << 10
	internArenaMax = 1 << 16
)

// Interner assigns stable small integer identities to configurations: two
// configurations receive the same ID iff they are Equal. Identity is
// resolved by the 64-bit configuration fingerprint in an Index, with every
// candidate match confirmed against the full binary canonical key, so
// fingerprint collisions cost a bytes.Equal, never correctness. IDs are
// dense, in interning order.
//
// The interner is a visited set over keys — the distributed explorer's
// workers dedup transmitted keys in one: Intern and InternKey report
// whether the configuration was fresh (seen for the first time). Keys are
// the compact binary form (Config.KeyBytes). (The explore package's engine
// does not intern: it indexes its own node table by fingerprint.)
//
// Interner is safe for concurrent use: one mutex guards the index, the
// key column and the arena.
//
// One interner holds one key namespace, the binary canonical key: Intern
// takes it from the configuration, InternKey from a holder of a
// transmitted key. An entry made either way is found by Lookup and every
// later Intern of an Equal configuration.
type Interner struct {
	mu    sync.Mutex
	index Index
	keys  [][]byte // by ID
	arena []byte
}

// NewInterner returns an empty interner. Its table is allocated on first
// insertion, so short-lived interners cost almost nothing until they see
// configurations.
func NewInterner() *Interner { return &Interner{} }

// Reset empties the interner for another run: no key interned before is
// found and IDs start over, as in a new one. It keeps the index's slots,
// the key column and the current arena chunk, so a long-lived owner — a
// cluster worker, job after job — refills them instead of allocating them
// again. Callers hold no reference into the arena (InternKey hands out
// only IDs), which is what lets the chunk be overwritten.
func (it *Interner) Reset() {
	it.mu.Lock()
	defer it.mu.Unlock()
	it.index.Reset()
	clear(it.keys)
	it.keys = it.keys[:0]
	it.arena = it.arena[:0]
}

// intern looks key up under h and admits it when it is fresh, copied into
// the arena if owned is false; it.mu must be held.
func (it *Interner) intern(h uint64, key []byte, owned bool) (id uint64, fresh bool) {
	if id, ok := it.lookup(h, key); ok {
		return id, false
	}
	if !owned {
		key = it.copyToArena(key)
	}
	it.index.Insert(h, int32(len(it.keys)))
	it.keys = append(it.keys, key)
	return uint64(len(it.keys) - 1), true
}

// lookup finds key under h; it.mu must be held.
func (it *Interner) lookup(h uint64, key []byte) (uint64, bool) {
	id, ok := it.index.Find(h, func(id int32) bool { return bytes.Equal(it.keys[id], key) })
	return uint64(id), ok
}

// copyToArena stores one key's bytes in the arena and returns the stable
// sub-slice. A full chunk is followed by one twice its size, up to
// internArenaMax; the tail of a chunk too small for the next key is
// abandoned — bounded waste for allocation-free steady state.
func (it *Interner) copyToArena(key []byte) []byte {
	if cap(it.arena)-len(it.arena) < len(key) {
		size := min(max(2*cap(it.arena), internArenaMin), internArenaMax)
		it.arena = make([]byte, 0, max(size, len(key)))
	}
	off := len(it.arena)
	it.arena = append(it.arena, key...)
	return it.arena[off:len(it.arena):len(it.arena)]
}

// Intern returns the ID of c, assigning a fresh one if c was never seen
// before. fresh reports whether this call was the first to intern a
// configuration Equal to c.
//
// A fresh entry aliases c's cached binary key rather than copying it: the
// owner retains every first-seen configuration anyway, so the visited set
// stores each key exactly once.
func (it *Interner) Intern(c *Config) (id uint64, fresh bool) {
	h := c.Hash()
	key := c.KeyBytes()
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.intern(h, key, true)
}

// InternKey interns by precomputed fingerprint and binary canonical key,
// for holders of transmitted keys with no Config to materialize — the
// distributed explorer's visited sets dedup exactly this way. A dedup hit
// costs zero allocations; a fresh key is copied into the arena, so the
// caller's buffer (a received frame) is not retained.
//
// h must be the FNV-1a fingerprint of key, i.e. Hash() of the
// configuration whose KeyBytes() key is.
func (it *Interner) InternKey(h uint64, key []byte) (id uint64, fresh bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.intern(h, key, false)
}

// LookupKey returns the ID of the configuration whose fingerprint is h and
// binary canonical key is key, if it has been interned: InternKey's
// read-only twin, for a holder that keys a configuration it has not built
// (model.Draft.AppendKey). It allocates nothing and retains nothing.
func (it *Interner) LookupKey(h uint64, key []byte) (id uint64, ok bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.lookup(h, key)
}

// Len returns the number of distinct configurations interned.
func (it *Interner) Len() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	return len(it.keys)
}
