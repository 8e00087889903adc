package explore

import (
	"github.com/flpsim/flp/internal/model"
)

// Visit is called once per distinct reachable configuration, in
// breadth-first order, starting with the root itself at depth 0. path
// reconstructs the schedule from the root to this configuration on demand.
// Returning stop=true ends the exploration early.
//
// path is valid only during its visit: call it there, or keep the schedule
// it returns, never the func. An exploration hands every visit the same
// func, reading a table it recycles once it returns; called after its
// visit, path panics between visits and after the exploration, and answers
// for the configuration being visited during a later visit. Every engine
// that takes a Visit — the cluster's run included — is held to this
// contract, not to whatever its own path happens to allow.
//
// Visit callbacks are always invoked from a single goroutine (the
// exploration coordinator), in deterministic breadth-first order,
// regardless of Options.Workers; they may freely mutate caller state
// without synchronization.
type Visit func(cfg *model.Config, depth int, path func() model.Schedule) (stop bool)

// Explore performs budgeted breadth-first reachability from c under
// protocol pr, deduplicating configurations by Config.Equal. If avoid is
// non-nil, events Same as *avoid are never applied — this realizes the set
// ℰ of "configurations reachable from C without applying e" from Lemma 3.
//
// It reports whether the reachable set was exhausted within the budget
// (complete) and how many distinct configurations were visited.
func Explore(pr model.Protocol, c *model.Config, opt Options, avoid *model.Event, visit Visit) (complete bool, visited int) {
	return ExploreFiltered(pr, c, opt, AvoidFilter(avoid), visit)
}

// ExploreFiltered is Explore with an arbitrary event filter: events for
// which skip returns true are never applied. A nil skip admits everything.
// The Lemma 2 proof walk uses it to explore runs in which a whole process
// takes no steps.
//
// The exploration runs on the level-synchronous core (core.go) at every
// worker count. With Options.Workers > 1, node expansion — event
// enumeration, protocol steps, and successor fingerprinting, the dominant
// costs — runs on a worker pool one breadth-first level at a time, while a
// single coordinator merges successors into the frontier in canonical
// order; with one worker the same coordinator expands each node inline.
// Results are byte-identical either way, and to ReferenceExplore. skip
// must be safe for concurrent calls (the filters used by the checkers are
// pure functions of the event); pr must honour the Protocol contract of
// being deterministic and side-effect free, which also makes it safe to
// call from several workers.
//
// The walk's node table, index, successor rows and buffers come from the
// last finished exploration and go back for the next (core.go's tables):
// an exploration allocates its configurations, little else.
//
// The distributed engine (package distexplore) runs the same algorithm
// with the frontier partitioned by configuration hash range across worker
// processes; it shares the canonical event order, AvoidFilter, SpecChunk
// and Ledger with this package, which is what keeps its results
// byte-identical too.
func ExploreFiltered(pr model.Protocol, c *model.Config, opt Options, skip func(model.Event) bool, visit Visit) (complete bool, visited int) {
	w := acquireCore(pr, c, skip)
	complete, visited = w.walk(0, opt.withDefaults(), visit), w.Len()
	w.release()
	return complete, visited
}

// node is one entry of the reference engine's breadth-first frontier.
// Parent links let path reconstruction walk back to the root without
// storing schedules.
type node struct {
	cfg    *model.Config
	depth  int
	parent int
	via    model.Event
}

// ReferenceExplore is ExploreFiltered as a plain sequential loop: one
// protocol step per applicable event of every expanded node, one map probe
// per successor, nothing looked up. No Options value routes to it
// (Workers is ignored). It exists as the oracle: it shares the event
// filter and the admission Ledger with the core but neither its loop, its
// diamond rule nor its dedup (a Go map of built keys, where the core has
// its fingerprint index), and the differential tests of this package,
// package conformance and package distexplore hold every engine to its
// visit stream and counts.
func ReferenceExplore(pr model.Protocol, c *model.Config, opt Options, skip func(model.Event) bool, visit Visit) (complete bool, visited int) {
	led := NewLedger(opt)
	nodes := []node{{cfg: c, depth: 0, parent: -1}}
	seen := map[string]bool{string(c.KeyBytes()): true}
	pathOf := func(i int) func() model.Schedule {
		return func() model.Schedule {
			return treePath(i, nodes[i].depth, func(j int) (int, model.Event) { return nodes[j].parent, nodes[j].via })
		}
	}

	// Expansion and merging are fused so the event loop can break the
	// moment a fresh successor overflows the budget, skipping the protocol
	// steps and key probes for the rest of the node's events.
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		if visit != nil && visit(n.cfg, n.depth, pathOf(i)) {
			return false, len(nodes)
		}
		if led.Truncated {
			continue
		}
		for _, e := range model.Events(n.cfg) {
			nc := successor(pr, n.cfg, e, skip)
			if nc == nil {
				continue
			}
			k := string(nc.KeyBytes())
			if seen[k] {
				continue
			}
			seen[k] = true
			if !led.Admit() {
				break
			}
			nodes = append(nodes, node{cfg: nc, depth: n.depth + 1, parent: i, via: e})
		}
	}
	return led.Complete(), len(nodes)
}

// Reachable reports whether target is reachable from c (by configuration
// key equality), returning a witness schedule when it is.
func Reachable(pr model.Protocol, c, target *model.Config, opt Options) (model.Schedule, bool) {
	var witness model.Schedule
	found := false
	Explore(pr, c, opt, nil, func(cfg *model.Config, _ int, path func() model.Schedule) bool {
		if cfg.Equal(target) {
			witness = path()
			found = true
			return true
		}
		return false
	})
	return witness, found
}

// CountReachable returns the number of distinct configurations reachable
// from c within the budget and whether the count is exact.
func CountReachable(pr model.Protocol, c *model.Config, opt Options) (count int, exact bool) {
	complete, visited := Explore(pr, c, opt, nil, nil)
	return visited, complete
}
