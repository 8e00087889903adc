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

// Frontier is Lemma 3's loop, the one walk of D = e(ℰ): it refuses an e
// not applicable to c, walks ℰ — the configurations reachable from c
// without applying e — breadth-first within opt, and hands each member E to
// each together with D = e(E) and path, E's schedule from c (valid only
// during the call, as a Visit's path is). each stops the walk by returning
// false. complete reports whether ℰ was exhausted within the budget; a
// walk that each stopped reports false.
//
// Every Lemma 3 front end is a callback of Frontier: CensusLemma3
// classifies every D, the direct routes of CheckLemma3Diamond and
// CheckLemma3Figure3 check the proof's Lemma 1 commutations around every
// E, and a stage of the Theorem 1 adversary (package adversary) stops at
// the first undecided bivalent D.
func Frontier(pr model.Protocol, c *model.Config, e model.Event, opt Options, each func(E, D *model.Config, path func() model.Schedule) bool) (complete bool, err error) {
	if err := applicable(c, e); err != nil {
		return false, err
	}
	complete, _ = Explore(pr, c, opt, &e, func(E *model.Config, _ int, path func() model.Schedule) bool {
		// e is applicable to every E ∈ ℰ: for a delivery event, only e
		// itself could consume its message, and e is excluded from ℰ's
		// schedules; null events are always applicable. MustApply panics
		// if the model ever breaks that.
		return !each(E, model.MustApply(pr, E, e), path)
	})
	return complete, nil
}

// applicable is the refusal every Lemma 3 entry point makes before it
// spends anything on (c, e).
func applicable(c *model.Config, e model.Event) error {
	if !model.Applicable(c, e) {
		return fmt.Errorf("explore: event %s not applicable to C", e)
	}
	return nil
}

// CensusLemma3 examines the full frontier D for a configuration C and
// applicable event e: it classifies e(E) for every E ∈ ℰ (up to the
// budget), tallies the classes, and records a witness schedule to a
// bivalent member. For a bivalent C of a protocol within the lemma's
// hypotheses, BivalentFound must come back true.
//
// cache may be nil; passing one shares the valency atlas the first call
// builds over reach(C) — and any classification outside it — across calls,
// which is the right mode for examining several events from the same C
// (flpcheck's Lemma 3 section) or successive stages of the adversary. With
// a nil cache, the census classifies through a private one.
//
// Where an attached atlas covers C, ℰ is walked on its recorded adjacency
// and every D is read off its row (censusOnAtlas); each D so answered
// counts as one cache hit. Frontier runs instead, classifying each D
// through the cache, in three cases: no atlas covers C (reach(C) is over
// the cache's budget), opt sets MaxDepth, or ℰ is larger than
// opt.MaxConfigs, whose truncated walk only Frontier reproduces.
// TestLemma3RoutesAgree holds the two routes to equal results.
func CensusLemma3(pr model.Protocol, c *model.Config, e model.Event, opt Options, cache *Cache) (Lemma3Result, error) {
	if err := applicable(c, e); err != nil {
		return Lemma3Result{}, err
	}
	if cache == nil {
		cache = NewCache(pr, opt)
	}
	cache.TryWarm(c)
	if opt = opt.Normalized(); opt.MaxDepth == 0 {
		if a, id, ok := cache.atlasFor(c); ok {
			if res, ok := censusOnAtlas(a, id, e, opt.MaxConfigs); ok {
				cache.hits.Add(int64(res.FrontierSize))
				return res, nil
			}
		}
	}
	res := Lemma3Result{Event: e, DValencies: make(map[Valency]int)}
	complete, err := Frontier(pr, c, e, opt, func(_, D *model.Config, path func() model.Schedule) bool {
		res.FrontierSize++
		v := cache.Classify(D).Valency
		res.DValencies[v]++
		if v == Bivalent && res.Sigma == nil {
			res.BivalentFound = true
			res.Sigma = append(path(), e)
		}
		return true
	})
	res.Complete = complete
	return res, err
}

// censusOnAtlas is CensusLemma3 on recorded adjacency from node c: ℰ is
// one frontier walk, each D = e(u) is u's row entry for e, its class is
// the atlas's, and σ is the walk's tree path to the first member whose D
// is bivalent. It refuses (ok=false) an ℰ larger than maxConfigs.
func censusOnAtlas(a *Atlas, c int32, e model.Event, maxConfigs int) (res Lemma3Result, ok bool) {
	w := a.frontier(c, e)
	if len(w.order) > maxConfigs {
		return Lemma3Result{}, false
	}
	res = Lemma3Result{Event: e, FrontierSize: len(w.order), DValencies: make(map[Valency]int), Complete: true}
	for _, u := range w.order {
		v := a.ValencyAt(a.memberSucc(u, e))
		res.DValencies[v]++
		if v == Bivalent && res.Sigma == nil {
			res.BivalentFound = true
			res.Sigma = append(w.path(a, u), e)
		}
	}
	return res, true
}

// Lemma3Tally is Lemma 3 over a whole atlas for one event e: the pairs
// (C, e) with C a bivalent node at which e is applicable, how many of them
// the lemma holds at — some configuration of D = e(ℰ) is bivalent — and a
// blocking certificate for each of the rest.
type Lemma3Tally struct {
	Event    model.Event
	Pairs    int
	Holds    int
	Failures []Lemma3Failure
}

// Lemma3Failure is a pair (C, e) at which Lemma 3 fails, with the
// certificate the proof's Case 2 promises: a node C₀ in C's e-free reach
// from which no run in which p = e.P takes no steps reaches a decision.
// Crash p at C₀: every fair p-free run from there is admissible with one
// fault, and none decides.
type Lemma3Failure struct {
	// C is the bivalent node and C0 the blocking node, both atlas ids.
	C, C0 int32
	P     model.PID
	// Schedule runs from the atlas root to C₀: the root's shortest path
	// to C, then a shortest e-free path from C.
	Schedule model.Schedule
}

// Lemma3Atlas answers Lemma 3 for every bivalent node C of a and every
// event e applicable at C, one tally per distinct event: each process's
// null event and then the deliveries to it, in order of first appearance
// on the atlas's rows.
//
// One backward pass per event decides every C at once: seed each node
// whose e-successor is bivalent (for a null e with no row entry, e is a
// no-op there and the seed is the node itself), and walk reverse edges
// not Same as e. The lemma holds at (C, e) exactly when C is reached,
// since ℰ is C's e-free reach. A failure's C₀ is the nearest node of that
// reach where distDecidedAvoiding(e.P) is −1, found by a second pass over
// the same edges; the proof's Case 2, with Lemma 1 and write-once outputs,
// says one exists, so Lemma3Atlas panics if the model ever breaks that.
func Lemma3Atlas(a *Atlas) []Lemma3Tally {
	bivalent := func(id int32) bool { return a.ValencyAt(id) == Bivalent }
	avoiding := make(map[model.PID][]int32) // distDecidedAvoiding, once per process
	var tallies []Lemma3Tally
	for _, e := range a.events() {
		notE := func(ev model.Event) bool { return !ev.Same(e) }
		holds := a.backwardBFS(func(u int32) bool {
			d, ok := a.succByEvent(u, e)
			return ok && bivalent(d)
		}, notE)
		t := Lemma3Tally{Event: e}
		var blocked []int32
		for c := int32(0); c < int32(a.Len()); c++ {
			if !bivalent(c) {
				continue
			}
			if _, ok := a.succByEvent(c, e); !ok {
				continue // a delivery whose message is not pending at c
			}
			t.Pairs++
			if holds[c] >= 0 {
				t.Holds++
				continue
			}
			if blocked == nil {
				avoid, ok := avoiding[e.P]
				if !ok {
					avoid = a.distDecidedAvoiding(e.P)
					avoiding[e.P] = avoid
				}
				blocked = a.backwardBFS(func(u int32) bool { return avoid[u] < 0 }, notE)
			}
			if blocked[c] < 0 {
				panic(fmt.Sprintf("explore: Lemma 3 fails at node %d for %s with no blocking node in its reach; model invariant broken", c, e))
			}
			sigma, c0 := a.descendWhere(c, blocked, notE)
			t.Failures = append(t.Failures, Lemma3Failure{C: c, C0: c0, P: e.P, Schedule: append(a.PathTo(c), sigma...)})
		}
		tallies = append(tallies, t)
	}
	return tallies
}

// events lists the atlas's distinct events: for each process, its null
// event and then the deliveries to it, in order of first appearance on the
// rows.
func (a *Atlas) events() []model.Event {
	n := a.Root().N()
	deliveries := make([][]model.Event, n)
	seen := make(map[model.Message]bool)
	for _, ev := range a.g.SuccVia {
		if !ev.IsNull() && !seen[*ev.Msg] {
			seen[*ev.Msg] = true
			deliveries[ev.P] = append(deliveries[ev.P], ev)
		}
	}
	var out []model.Event
	for p := range n {
		out = append(out, model.NullEvent(model.PID(p)))
		out = append(out, deliveries[p]...)
	}
	return out
}
