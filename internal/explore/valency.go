package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/flpsim/flp/internal/model"
)

// Valency classifies a configuration C by V, the set of decision values of
// configurations reachable from C (Section 3 of the paper).
type Valency int

const (
	// Unknown: the exploration budget was exhausted before the class
	// could be established (fewer than two values seen, reachable set not
	// exhausted).
	Unknown Valency = iota
	// Stuck: the reachable set was exhausted and contains no decision at
	// all (V = ∅). The paper rules this out for totally correct protocols
	// ("by the total correctness of P ... V ≠ ∅"); protocols that block —
	// 2PC with a dead coordinator — exhibit it.
	Stuck
	// ZeroValent: V = {0}.
	ZeroValent
	// OneValent: V = {1}.
	OneValent
	// Bivalent: V = {0, 1}.
	Bivalent
)

func (v Valency) String() string {
	switch v {
	case Unknown:
		return "unknown"
	case Stuck:
		return "stuck"
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	}
	return fmt.Sprintf("Valency(%d)", int(v))
}

// ValencyInfo is the result of classifying one configuration.
type ValencyInfo struct {
	Valency Valency
	// Exact reports whether the classification is definitive. Bivalence
	// is exact whenever both witnesses were found, regardless of budget;
	// ZeroValent, OneValent, and Stuck are exact only when the reachable
	// set was exhausted.
	Exact bool
	// Witness0 and Witness1 are schedules from the configuration to a
	// configuration with decision value 0 (resp. 1), when found. A
	// bivalence certificate is the pair of them.
	Witness0, Witness1 model.Schedule
	// Visited is the number of distinct configurations explored.
	Visited int
	// Complete reports whether the reachable set was exhausted.
	Complete bool

	// hasZero/hasOne record which decision values were seen; they are kept
	// separately from the witnesses because a decision present in the root
	// itself has a valid but empty (nil-ambiguous) witness schedule.
	hasZero, hasOne bool
}

// HasWitness reports whether a configuration with decision value d was
// reached during classification.
func (v ValencyInfo) HasWitness(d model.Value) bool {
	if d == model.V0 {
		return v.hasZero
	}
	return v.hasOne
}

// Classify computes the valency of c under pr, within the given budget.
//
// The search is breadth-first and stops as soon as both decision values
// have been seen (a bivalence certificate needs nothing more). Witness
// schedules are the shortest ones in event count.
func Classify(pr model.Protocol, c *model.Config, opt Options) ValencyInfo {
	var info ValencyInfo
	complete, visited := Explore(pr, c, opt, nil, func(cfg *model.Config, _ int, path func() model.Schedule) bool {
		for _, d := range cfg.DecisionValues() {
			switch d {
			case model.V0:
				if !info.hasZero {
					info.hasZero = true
					info.Witness0 = path()
				}
			case model.V1:
				if !info.hasOne {
					info.hasOne = true
					info.Witness1 = path()
				}
			}
		}
		return info.hasZero && info.hasOne
	})
	info.Visited = visited
	info.Complete = complete

	switch {
	case info.hasZero && info.hasOne:
		info.Valency = Bivalent
		info.Exact = true
	case info.hasZero:
		info.Valency = ZeroValent
		info.Exact = complete
	case info.hasOne:
		info.Valency = OneValent
		info.Exact = complete
	case complete:
		info.Valency = Stuck
		info.Exact = true
	default:
		info.Valency = Unknown
	}
	if !info.Exact {
		info.Valency = Unknown
	}
	return info
}

// Cache memoizes valency classifications by configuration identity:
// fingerprints in a model.Index, every hit confirmed by Config.Equal
// against the memoized configuration. All entries in one cache must be
// produced with the same Options for the memoization to be meaningful;
// Cache enforces that by carrying the Options itself.
//
// Thread-safety contract: every method is safe for concurrent use. One
// mutex guards the index and the memo column, and the hit/miss counters
// are atomic. Classification itself runs outside the lock, so concurrent
// Classify calls for the same configuration may each compute the result;
// classification is deterministic, the computed results are identical,
// and the first store wins, so all callers observe one canonical
// ValencyInfo. A concurrent compute that loses the store race still counts
// as a miss in Stats — misses count classifications performed, hits count
// lookups answered from memory, where "memory" includes any valency atlas
// attached with Warm.
type Cache struct {
	pr     model.Protocol
	opt    Options
	probe  *ProbeOptions
	mu     sync.Mutex
	index  model.Index
	memo   []memoEntry // by index id
	hits   atomic.Int64
	misses atomic.Int64

	// atlases holds the valency atlases attached by Warm, consulted on
	// memo misses before any per-configuration classification runs. The
	// slice is replaced copy-on-write under warmMu; readers load it
	// atomically.
	atlases atomic.Pointer[[]*Atlas]
	warmMu  sync.Mutex
	// builds is where TryWarm sources atlases from: a keyed,
	// singleflight-deduplicated build cache that also memoizes refusals,
	// so a root whose sweep exceeds the budget is probed once. Private by
	// default; ShareAtlasBuilds swaps in a process-wide cache so several
	// valency caches (the serving layer's per-request ones) amortize one
	// exploration.
	builds *AtlasCache
}

type memoEntry struct {
	cfg  *model.Config
	info ValencyInfo
}

func newCache(pr model.Protocol, opt Options, probe *ProbeOptions) *Cache {
	return &Cache{pr: pr, opt: opt.withDefaults(), probe: probe, builds: NewAtlasCache()}
}

// ShareAtlasBuilds makes vc source its TryWarm atlas builds from ac
// instead of its private build cache, so atlases (and memoized refusals)
// are shared with every other consumer of ac. Call before the cache is
// used concurrently.
func (vc *Cache) ShareAtlasBuilds(ac *AtlasCache) { vc.builds = ac }

// NewCache returns a valency cache for pr with a fixed exploration budget.
func NewCache(pr model.Protocol, opt Options) *Cache {
	return newCache(pr, opt, nil)
}

// NewSmartCache returns a cache that classifies via ClassifySmart: probe
// runs first, budgeted breadth-first search as fallback. This is the
// configuration the Theorem 1 adversary uses on protocols with unbounded
// state spaces.
func NewSmartCache(pr model.Protocol, opt Options, popt ProbeOptions) *Cache {
	p := popt.withDefaults()
	return newCache(pr, opt, &p)
}

// Classify returns the memoized classification of c.
func (vc *Cache) Classify(c *model.Config) ValencyInfo {
	return vc.classify(c, vc.opt)
}

// ClassifyWith is Classify spending opt.Workers in place of the cache's
// own; every other field of opt is ignored, since the cache's bounds
// decide what it memoizes. Its shape is Census's classify, which hands
// each root the Workers it may spend.
func (vc *Cache) ClassifyWith(c *model.Config, opt Options) ValencyInfo {
	o := vc.opt
	o.Workers = opt.Workers
	return vc.classify(c, o)
}

// classify is Classify under opt, which is vc.opt but for Workers.
func (vc *Cache) classify(c *model.Config, opt Options) ValencyInfo {
	h := c.Hash()
	vc.mu.Lock()
	info, ok := vc.lookup(h, c)
	vc.mu.Unlock()
	if ok {
		vc.hits.Add(1)
		return info
	}

	if info, ok := vc.atlasInfo(c); ok {
		vc.hits.Add(1)
		return vc.store(h, c, info)
	}

	vc.misses.Add(1)
	if vc.probe != nil {
		info = ClassifySmart(vc.pr, c, opt, *vc.probe)
	} else {
		info = Classify(vc.pr, c, opt)
	}
	return vc.store(h, c, info)
}

// lookup returns the memoized classification of c, fingerprint h; vc.mu
// must be held.
func (vc *Cache) lookup(h uint64, c *model.Config) (ValencyInfo, bool) {
	id, ok := vc.index.Find(h, func(id int32) bool { return vc.memo[id].cfg.Equal(c) })
	if !ok {
		return ValencyInfo{}, false
	}
	return vc.memo[id].info, true
}

// store memoizes info for c, fingerprint h, unless a concurrent call
// stored first, returning the entry every caller will observe from now on.
func (vc *Cache) store(h uint64, c *model.Config, info ValencyInfo) ValencyInfo {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if first, ok := vc.lookup(h, c); ok {
		return first // a concurrent classification stored first
	}
	vc.index.Insert(h, int32(len(vc.memo)))
	vc.memo = append(vc.memo, memoEntry{cfg: c, info: info})
	return info
}

// atlasInfo answers c from an attached atlas, when one covers it.
func (vc *Cache) atlasInfo(c *model.Config) (ValencyInfo, bool) {
	a, id, ok := vc.atlasFor(c)
	if !ok {
		return ValencyInfo{}, false
	}
	return a.InfoAt(id), true
}

// atlasFor returns the first attached atlas that covers c, with c's node
// id in it.
func (vc *Cache) atlasFor(c *model.Config) (*Atlas, int32, bool) {
	if atlases := vc.atlases.Load(); atlases != nil {
		for _, a := range *atlases {
			if id, ok := a.IDOf(c); ok {
				return a, id, true
			}
		}
	}
	return nil, 0, false
}

// Warm attaches atlas to the cache: every configuration in the atlas's
// exhausted reachable set is answered from its backward-propagated
// decision bits — counted as a hit, memoized on first query — instead of
// a per-configuration search. Atlas answers are exact and agree with what
// Classify under the cache's options would compute (witness schedules may
// differ; lengths do not, both being shortest), so warming never changes a
// caller-observable classification, only its cost.
// Several atlases may be attached; they are consulted in attachment order.
// Attaching an atlas that is already attached is a no-op — the build cache
// hands out one shared *Atlas per key, so pointer identity is the dedup.
// Safe for concurrent use.
func (vc *Cache) Warm(atlas *Atlas) {
	vc.warmMu.Lock()
	defer vc.warmMu.Unlock()
	var next []*Atlas
	if cur := vc.atlases.Load(); cur != nil {
		for _, a := range *cur {
			if a == atlas {
				return
			}
		}
		next = append(next, *cur...)
	}
	next = append(next, atlas)
	vc.atlases.Store(&next)
}

// Covers reports whether an attached atlas answers c.
func (vc *Cache) Covers(c *model.Config) bool {
	_, _, ok := vc.atlasFor(c)
	return ok
}

// TryWarm ensures the cache is backed by an atlas covering root: an
// already-covered root returns immediately, otherwise an atlas is
// obtained from the build cache — built with the cache's own options on
// first use, answered from memory (or another consumer's in-flight
// build, singleflight) afterwards — and attached. A root whose reachable
// set exceeds the budget is remembered by the build cache, so repeated
// calls do not re-pay the failed sweep; the cache then keeps classifying
// per configuration, which is the correct fallback for unbounded state
// spaces. It reports whether the cache now covers root. Safe for
// concurrent use: concurrent first calls share one build and the atlas
// is attached once.
func (vc *Cache) TryWarm(root *model.Config) bool {
	if vc.Covers(root) {
		return true
	}
	atlas, ok := vc.builds.Get(vc.pr, root, vc.opt)
	if !ok {
		return false
	}
	vc.Warm(atlas)
	return true
}

// Stats returns cache hit/miss counters. Safe for concurrent use.
func (vc *Cache) Stats() (hits, misses int) {
	return int(vc.hits.Load()), int(vc.misses.Load())
}

// Len returns the number of memoized configurations. Safe for concurrent
// use.
func (vc *Cache) Len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return len(vc.memo)
}
