package explore

import (
	"fmt"
	"sync/atomic"

	"github.com/flpsim/flp/internal/keyedcache"
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
	c       *keyedcache.Cache[*Atlas]
	backend AtlasBackend
	// cachedHits counts Cached's hits, which keyedcache.Get does not count;
	// Stats folds them into the hit total.
	cachedHits atomic.Int64
}

// NewAtlasCache returns an empty atlas cache.
func NewAtlasCache() *AtlasCache {
	return &AtlasCache{c: keyedcache.New[*Atlas]()}
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

// AtlasKey renders the cache identity of an atlas build: the protocol's
// registry name (self-describing for generated gen: protocols) and
// process count, the exploration bounds, and the root's canonical key.
// Options.Workers is deliberately excluded — worker count never changes
// results (the byte-identity contract in Options), so explorations at
// different parallelism share one cache slot.
func AtlasKey(pr model.Protocol, root *model.Config, opt Options) string {
	opt = opt.Normalized()
	return fmt.Sprintf("%s|n=%d|cfg=%d|depth=%d|%s", pr.Name(), pr.N(), opt.MaxConfigs, opt.MaxDepth, root.Key())
}

// Get returns the atlas covering root under opt, building it (once,
// shared across concurrent callers) on first use. ok=false is BuildAtlas's
// complete-or-refused contract surfacing through the cache: the reachable
// set exceeds opt's budget, and the refusal is memoized so repeat callers
// skip straight to their per-configuration fallback.
func (ac *AtlasCache) Get(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool) {
	a, _, _ := ac.lookup(pr, root, opt)
	return a, a != nil
}

// GetStats is Get plus whether this call was answered without a build —
// the signal the serving layer's cache metrics are fed from.
func (ac *AtlasCache) GetStats(pr model.Protocol, root *model.Config, opt Options) (atlas *Atlas, ok, hit bool) {
	a, _, hit := ac.lookup(pr, root, opt)
	return a, a != nil, hit
}

// Cached returns the atlas covering root under opt only when it is already
// in memory: it never builds and never consults the backend. A memoized
// refusal, or a build still in flight, reports false. A returned atlas
// counts one hit in Stats, as the same lookup through Get would.
func (ac *AtlasCache) Cached(pr model.Protocol, root *model.Config, opt Options) (*Atlas, bool) {
	a, _, ok := ac.c.Get(AtlasKey(pr, root, opt))
	if !ok || a == nil {
		return nil, false
	}
	ac.cachedHits.Add(1)
	return a, true
}

func (ac *AtlasCache) lookup(pr model.Protocol, root *model.Config, opt Options) (*Atlas, error, bool) {
	return ac.c.Do(AtlasKey(pr, root, opt), func() (*Atlas, error) {
		var atlas *Atlas
		var ok bool
		if ac.backend != nil {
			atlas, ok = ac.backend.GetAtlas(pr, root, opt)
		} else {
			atlas, ok = BuildAtlas(pr, root, opt)
		}
		if !ok {
			return nil, nil // memoized refusal: nil atlas, no error
		}
		return atlas, nil
	})
}

// Len returns the number of cached slots (atlases plus memoized
// refusals).
func (ac *AtlasCache) Len() int { return ac.c.Len() }

// Stats returns cumulative lookup counters: hits answered from memory,
// misses that ran (or refused) a build, and merged lookups that waited on
// a concurrent caller's in-flight build.
func (ac *AtlasCache) Stats() (hits, misses, merged int64) {
	hits, misses, merged = ac.c.Stats()
	return hits + ac.cachedHits.Load(), misses, merged
}
