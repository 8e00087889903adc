package explore

import (
	"sync"
	"sync/atomic"

	"github.com/flpsim/flp/internal/model"
)

// AtlasCache is a shareable, process-wide cache of built valency atlases,
// keyed by (protocol identity, exploration bounds, root configuration)
// with singleflight build semantics: N concurrent requests for the same
// atlas cost exactly one BuildAtlas sweep, and every later request is a
// memory lookup. Refusals (reachable set over budget, depth-bounded
// options) are memoized too, so a root that cannot be covered is probed
// once, not on every query.
//
// This is the cache the serving layer (internal/serve) shares across
// requests and that Cache.TryWarm sources its atlases from — one
// exploration amortized across every consumer that names the same
// (protocol, params, root) tuple. Safe for concurrent use. Atlases are
// immutable, so a cached atlas may be handed to any number of consumers.
type AtlasCache struct {
	backend AtlasBackend

	mu      sync.Mutex
	entries map[atlasKey]*atlasEntry

	hits, misses, merged atomic.Int64
}

// atlasKey is the cache identity of an atlas build: the protocol's registry
// name (self-describing for generated gen: protocols) and process count, the
// exploration bounds, and the root's binary canonical key.
// Options.Workers is deliberately excluded — worker count never changes
// results (the byte-identity contract in Options), so explorations at
// different parallelism share one cache slot.
type atlasKey struct {
	name                 string
	n                    int
	maxConfigs, maxDepth int
	root                 string
}

func keyOf(pr model.Protocol, root *model.Config, opt Options) atlasKey {
	opt = opt.Normalized()
	return atlasKey{pr.Name(), pr.N(), opt.MaxConfigs, opt.MaxDepth, string(root.KeyBytes())}
}

// atlasEntry is one key's slot. done is closed when the build finishes;
// atlas is immutable after that, nil for a memoized refusal.
type atlasEntry struct {
	done  chan struct{}
	atlas *Atlas
}

// NewAtlasCache returns an empty atlas cache.
func NewAtlasCache() *AtlasCache {
	return &AtlasCache{entries: make(map[atlasKey]*atlasEntry)}
}

// AtlasBackend is a second-level atlas source consulted on memory-cache
// misses — in practice atlasstore.Store, which loads persisted artifacts
// and persists fresh builds. GetAtlas must honour BuildAtlas's
// complete-or-refused contract: atlas non-nil iff ok, nil/false for a
// refusal under opt's bounds. The cache memoizes whatever the backend
// answers, refusals included.
type AtlasBackend interface {
	GetAtlas(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool)
}

// SetBackend installs a second-level source behind the in-memory cache:
// lookups go memory → backend, and the backend (not the cache) decides
// how to build on a full miss. Call before the cache is shared; the
// backend is read without synchronization afterwards.
func (ac *AtlasCache) SetBackend(b AtlasBackend) { ac.backend = b }

// Get returns the atlas covering root under opt, building it on first use.
// Exactly one build runs per key: callers that arrive while it is in flight
// wait for it and share its result. ok=false is BuildAtlas's
// complete-or-refused contract surfacing through the cache: the reachable
// set exceeds opt's budget, and the refusal is memoized so repeat callers
// skip straight to their per-configuration fallback. A panicking build
// still closes its slot, so waiters are released with a memoized refusal,
// and the panic goes on up the building goroutine.
func (ac *AtlasCache) Get(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool) {
	key := keyOf(pr, root, opt)
	ac.mu.Lock()
	if e, ok := ac.entries[key]; ok {
		ac.mu.Unlock()
		select {
		case <-e.done:
			ac.hits.Add(1)
		default:
			ac.merged.Add(1)
			<-e.done
		}
		return e.atlas, e.atlas != nil
	}
	e := &atlasEntry{done: make(chan struct{})}
	ac.entries[key] = e
	ac.mu.Unlock()

	ac.misses.Add(1)
	defer close(e.done)
	var a *Atlas
	var ok bool
	if ac.backend != nil {
		a, ok = ac.backend.GetAtlas(pr, root, opt)
	} else {
		a, ok = BuildAtlas(pr, root, opt)
	}
	if ok {
		e.atlas = a
	}
	return e.atlas, e.atlas != nil
}

// Cached returns the atlas covering root under opt only when it is already
// in memory: it never builds and never consults the backend. A memoized
// refusal, or a build still in flight, reports false. A returned atlas
// counts one hit in Stats, as the same lookup through Get would.
func (ac *AtlasCache) Cached(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool) {
	ac.mu.Lock()
	e := ac.entries[keyOf(pr, root, opt)]
	ac.mu.Unlock()
	if e == nil {
		return nil, false
	}
	select {
	case <-e.done:
		if e.atlas != nil {
			ac.hits.Add(1)
			return e.atlas, true
		}
	default:
	}
	return nil, false
}

// Len returns the number of cached slots (atlases plus memoized
// refusals), builds in flight included.
func (ac *AtlasCache) Len() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.entries)
}

// Stats returns cumulative lookup counters: hits answered from memory,
// misses that ran (or refused) a build, and merged lookups that waited on
// a concurrent caller's in-flight build.
func (ac *AtlasCache) Stats() (hits, misses, merged int64) {
	return ac.hits.Load(), ac.misses.Load(), ac.merged.Load()
}
