package model

import (
	"bytes"
	"sync"
)

// internShardCount is the number of independently locked shards of an
// Interner. It is a power of two so shard selection is a mask of the
// fingerprint's low bits.
const internShardCount = 64

// A shard's key arena is a chain of chunks that interned keys are copied
// into back to back. Chunks double from internArenaMin to internArenaMax:
// a visited set of a million configurations still costs a few thousand
// allocations of key storage rather than a million, and one of a few
// hundred (a budgeted distributed job, spread over every shard) clears
// kilobytes rather than megabytes.
const (
	internArenaMin = 1 << 10
	internArenaMax = 1 << 16
)

// Interner assigns stable small integer identities to configurations: two
// configurations receive the same ID iff they are Equal. Identity is
// resolved by the 64-bit configuration fingerprint with every candidate
// match confirmed against the full binary canonical key, so fingerprint
// collisions cost a bytes.Equal, never correctness.
//
// The interner is the explorer's visited set: Intern reports whether the
// configuration was fresh (seen for the first time). Keys are the compact
// binary form (Config.KeyBytes) — no canonical-key strings are built or
// compared anywhere on this path.
//
// Interner is safe for concurrent use; the table is sharded by fingerprint
// so that concurrent interning of unrelated configurations rarely contends
// on a lock. IDs are unique across shards and reflect interning order only
// within a shard.
//
// One interner holds one key namespace, the binary canonical key: Intern
// takes it from the configuration, InternKey from a holder of a
// transmitted key. An entry made either way is found by Lookup and every
// later Intern of an Equal configuration. (The explore package's engine
// does not intern: it indexes its own node table by fingerprint.)
type Interner struct {
	shards [internShardCount]internShard
}

type internShard struct {
	mu      sync.Mutex
	buckets map[uint64][]internEntry
	count   uint64
	arena   []byte
}

type internEntry struct {
	key []byte
	id  uint64
}

// NewInterner returns an empty interner. Shard tables are allocated on
// first insertion, so short-lived interners (one per budgeted Classify,
// for example) cost almost nothing until they see configurations.
func NewInterner() *Interner { return &Interner{} }

// Reset empties the interner for another run: no key interned before is
// found and IDs start over, as in a new one. Each shard keeps its table's
// storage and its current arena chunk, so a long-lived owner — a cluster
// worker, job after job — refills them instead of allocating them again.
// Callers hold no reference into the arena (InternKey hands out only IDs),
// which is what lets the chunk be overwritten.
func (it *Interner) Reset() {
	for i := range it.shards {
		sh := &it.shards[i]
		sh.mu.Lock()
		clear(sh.buckets)
		sh.count = 0
		sh.arena = sh.arena[:0]
		sh.mu.Unlock()
	}
}

// lookupLocked scans the shard's bucket for key; sh.mu must be held.
func (sh *internShard) lookupLocked(h uint64, key []byte) (internEntry, bool) {
	for _, e := range sh.buckets[h] {
		if bytes.Equal(e.key, key) {
			return e, true
		}
	}
	return internEntry{}, false
}

// insertLocked adds an entry under h, assigning its interner-wide unique
// id; sh.mu must be held.
func (sh *internShard) insertLocked(h uint64, key []byte) internEntry {
	if sh.buckets == nil {
		sh.buckets = make(map[uint64][]internEntry)
	}
	e := internEntry{key: key, id: sh.count*internShardCount + h&(internShardCount-1)}
	sh.count++
	sh.buckets[h] = append(sh.buckets[h], e)
	return e
}

// copyToArena stores one key's bytes in the shard arena and returns the
// stable sub-slice. A full chunk is followed by one twice its size, up to
// internArenaMax; the tail of a chunk too small for the next key is
// abandoned — bounded waste for allocation-free steady state.
func (sh *internShard) copyToArena(key []byte) []byte {
	if cap(sh.arena)-len(sh.arena) < len(key) {
		size := min(max(2*cap(sh.arena), internArenaMin), internArenaMax)
		sh.arena = make([]byte, 0, max(size, len(key)))
	}
	off := len(sh.arena)
	sh.arena = append(sh.arena, key...)
	return sh.arena[off:len(sh.arena):len(sh.arena)]
}

// Intern returns the ID of c, assigning a fresh one if c was never seen
// before. fresh reports whether this call was the first to intern a
// configuration Equal to c.
//
// A fresh entry aliases c's cached binary key rather than copying it: the
// explorer retains every first-seen configuration anyway, so the visited
// set stores each key exactly once.
func (it *Interner) Intern(c *Config) (id uint64, fresh bool) {
	h := c.Hash()
	key := c.KeyBytes()
	sh := &it.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.lookupLocked(h, key); ok {
		return e.id, false
	}
	return sh.insertLocked(h, key).id, true
}

// InternKey interns by precomputed fingerprint and binary canonical key,
// for holders of transmitted keys with no Config to materialize — the
// distributed explorer's visited-set shards dedup exactly this way. A
// dedup hit costs zero allocations; a fresh key is copied into the shard's
// arena, so the caller's buffer (a received frame) is not retained.
//
// h must be the FNV-1a fingerprint of key, i.e. Hash() of the
// configuration whose KeyBytes() key is.
func (it *Interner) InternKey(h uint64, key []byte) (id uint64, fresh bool) {
	sh := &it.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.lookupLocked(h, key); ok {
		return e.id, false
	}
	return sh.insertLocked(h, sh.copyToArena(key)).id, true
}

// Lookup returns the ID of c if it has been interned.
func (it *Interner) Lookup(c *Config) (id uint64, ok bool) {
	h := c.Hash()
	key := c.KeyBytes()
	sh := &it.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, found := sh.lookupLocked(h, key); found {
		return e.id, true
	}
	return 0, false
}

// Len returns the number of distinct configurations interned.
func (it *Interner) Len() int {
	n := uint64(0)
	for i := range it.shards {
		sh := &it.shards[i]
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return int(n)
}
