package explore

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// Lemma3Result is the mechanized content of Lemma 3 for one (C, e) pair:
// with ℰ the configurations reachable from C without applying e, and
// D = e(ℰ), the lemma asserts D contains a bivalent configuration.
type Lemma3Result struct {
	Event model.Event
	// FrontierSize is |ℰ| examined (equals |D| examined, since e is
	// applicable to every member of ℰ).
	FrontierSize int
	// DValencies tallies the classification of each member of D.
	DValencies map[Valency]int
	// BivalentFound reports whether a bivalent member of D was certified.
	BivalentFound bool
	// Sigma is a schedule from C in which e is the last event applied and
	// whose result is bivalent, when found.
	Sigma model.Schedule
	// Complete reports whether ℰ was exhausted within the budget.
	Complete bool
}

// CensusLemma3 examines the full frontier D for a configuration C and
// applicable event e: it classifies e(E) for every E ∈ ℰ (up to the
// budget), tallies the classes, and records a witness schedule to a
// bivalent member. For a bivalent C of a protocol within the lemma's
// hypotheses, BivalentFound must come back true.
//
// cache may be nil; passing one shares classifications — and the valency
// atlas the first call builds over reach(C) — across calls, which is the
// right mode for examining several events from the same C (flpcheck's
// Lemma 3 section) or successive stages of the adversary. With a nil
// cache, the census classifies through a private one.
func CensusLemma3(pr model.Protocol, c *model.Config, e model.Event, opt Options, cache *Cache) (Lemma3Result, error) {
	if !model.Applicable(c, e) {
		return Lemma3Result{}, fmt.Errorf("explore: event %s not applicable to C", e)
	}
	classify := frontierClassifier(pr, c, opt, cache)
	res := Lemma3Result{Event: e, DValencies: make(map[Valency]int)}
	complete, _ := Explore(pr, c, opt, &e, func(E *model.Config, _ int, path func() model.Schedule) bool {
		res.FrontierSize++
		// e is applicable to every E ∈ ℰ: for a delivery event, only e
		// itself could consume its message, and e is excluded from ℰ's
		// schedules; null events are always applicable. Assert anyway.
		if !model.Applicable(E, e) {
			panic(fmt.Sprintf("explore: event %s not applicable to member of ℰ; model invariant broken", e))
		}
		D := model.MustApply(pr, E, e)
		v := classify(D)
		res.DValencies[v]++
		if v == Bivalent && res.Sigma == nil {
			res.BivalentFound = true
			res.Sigma = append(path(), e)
		}
		return false
	})
	res.Complete = complete
	return res, nil
}

// frontierClassifier classifies the members of D = e(ℰ) through a valency
// cache — the caller's, or a private one. Every D lies in reach(C), and
// the frontier's reachable sets overlap almost completely, so the cache is
// warmed with one valency atlas over reach(C) answering all of them in
// O(V+E) rather than one breadth-first search per member. TryWarm is a
// no-op when a previous call already covered C and remembers over-budget
// roots, so an unbounded protocol pays the failed sweep once and then
// classifies per configuration within the budget.
func frontierClassifier(pr model.Protocol, c *model.Config, opt Options, cache *Cache) func(*model.Config) Valency {
	if cache == nil {
		cache = NewCache(pr, opt)
	}
	cache.TryWarm(c)
	return func(D *model.Config) Valency { return cache.Classify(D).Valency }
}
