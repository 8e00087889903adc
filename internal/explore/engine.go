package explore

import (
	"github.com/flpsim/flp/internal/model"
)

// This file holds what every exploration engine shares: the engines of
// this package (the level-synchronous core in core.go and the reference
// loop in reach.go) and the distributed engine of package distexplore. All
// are the same breadth-first algorithm — expand frontier nodes in canonical
// order, deduplicate successors against a visited set, admit first-seen
// configurations under a budget — differing only in where the work runs.
// Step-only expansion (AppendSuccessors: what the reference loop runs;
// core.step takes the same step for every event the core's row lookups
// cannot answer, looking it up before it is built, as the cluster's workers
// do for every event) and admission accounting (Ledger) live here so that
// the rules they encode exist once.

// Successor is one expansion product: the applied event together with the
// resulting configuration, its fingerprint precomputed.
type Successor struct {
	Via model.Event
	Cfg *model.Config
}

// successor returns e(c), or nil when e is excluded from the expansion of
// c: either the caller's filter rejects it, or it is a null event that
// would not change the system state (skipping no-op nulls is what keeps
// the explored state space of a finite protocol finite). model.Expand
// decides the latter from the same protocol step that builds the child.
func successor(pr model.Protocol, c *model.Config, e model.Event, skip func(model.Event) bool) *model.Config {
	if skip != nil && skip(e) {
		return nil
	}
	return model.Expand(pr, c, e)
}

// AppendSuccessors enumerates the successors of c under pr in canonical
// event order into a caller-owned buffer, applying the same event
// filtering as every engine's merge path. It is a pure function of its
// arguments (pr must honour the Protocol contract of determinism and
// side-effect freedom), so it may run on any worker — an in-process
// goroutine or a remote shard — without changing results. Fingerprints are
// computed here, off the merge path. dst is truncated before use and grown
// in place when capacity allows, so engines recycle successor slices
// instead of allocating one per expanded node.
func AppendSuccessors(pr model.Protocol, c *model.Config, skip func(model.Event) bool, dst []Successor) []Successor {
	dst = dst[:0]
	for _, e := range model.Events(c) {
		nc := successor(pr, c, e, skip)
		if nc == nil {
			continue
		}
		nc.Hash()
		dst = append(dst, Successor{Via: e, Cfg: nc})
	}
	return dst
}

// AvoidFilter returns the event filter realizing Lemma 3's set ℰ of
// "configurations reachable without applying e": events Same as *avoid are
// rejected. A nil avoid yields a nil filter (admit everything). The filter
// is a pure function of the event, so it is safe for concurrent use and
// can be reconstructed from a serialized event on a remote worker.
func AvoidFilter(avoid *model.Event) func(model.Event) bool {
	if avoid == nil {
		return nil
	}
	return func(e model.Event) bool { return e.Same(*avoid) }
}

// Ledger is the admission bookkeeping shared by every engine: how many
// configurations have been admitted to the frontier, and whether the
// budget truncated the exploration. Engines consult it in deterministic
// merge order — a single coordinator goroutine in-process, the coordinator
// process in the distributed engine — so Ledger itself needs no
// synchronization.
type Ledger struct {
	// MaxConfigs mirrors the exploration's Options after defaulting.
	MaxConfigs int
	// Count is the number of admitted configurations, the root included.
	Count int
	// Truncated records that a fresh configuration was refused: the
	// exploration reports complete=false, and nothing can be admitted
	// again, so expansion stops. Only a refusal sets it — Admit at a full
	// ledger, or a walk with edges refusing a whole row, which ends that
	// walk. An exactly-full ledger is not truncated: it must still expand
	// to learn whether a fresh successor exists.
	Truncated bool
}

// NewLedger returns the admission ledger for one exploration. The root is
// always admitted, so Count starts at 1.
func NewLedger(opt Options) *Ledger {
	return &Ledger{MaxConfigs: opt.Normalized().MaxConfigs, Count: 1}
}

// Admit accounts for one first-seen configuration, reporting whether it
// joins the frontier. A fresh configuration arriving at a full frontier
// marks the exploration truncated — dedup comes first, so only genuinely
// new states spend budget. Count never decreases, so once Admit has
// returned false it returns false forever.
func (l *Ledger) Admit() bool {
	if l.Count >= l.MaxConfigs {
		l.Truncated = true
		return false
	}
	l.Count++
	return true
}

// Complete reports whether the reachable set was exhausted.
func (l *Ledger) Complete() bool { return !l.Truncated }
