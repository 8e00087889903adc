package explore

import "github.com/flpsim/flp/internal/model"

// DiamondReport summarizes the Figure 2 check for one (C, e) pair: for
// neighbor configurations C0 ∈ ℰ and C1 = e'(C0) with e' = (p', m') and
// p' ≠ p, Lemma 1 forces the commutativity square
//
//	  C0 ──e'──▶ C1
//	  │           │
//	  e           e
//	  ▼           ▼
//	D0 = e(C0) ──e'──▶ D1 = e(C1)
//
// i.e. e'(e(C0)) = e(e'(C0)). Case 1 of Lemma 3's proof derives its
// contradiction from exactly this square ("D1 = e'(D0) by Lemma 1. This is
// impossible, since any successor of a 0-valent configuration is
// 0-valent").
type DiamondReport struct {
	Event model.Event
	// Squares is the number of (C0, e') pairs checked.
	Squares int
	// Violations counts squares that failed to commute — always zero for
	// a sound model.
	Violations int
	// Complete reports whether ℰ was exhausted within the budget.
	Complete bool
}

// CheckLemma3Diamond verifies the Figure 2 commutativity square on every
// neighbor pair within ℰ (the configurations reachable from C without
// applying e) whose connecting event is by a different process than e's.
// It is Lemma 1 instantiated exactly where the Lemma 3 proof uses it.
//
// When reach(C) fits the budget the squares are checked on the valency
// atlas's recorded adjacency — every corner is an interned node and each
// square is four id lookups instead of four configuration applications and
// a canonical-key comparison. Over-budget state spaces take the direct
// route below, one square at a time around each member Frontier hands over.
// TestLemma3RoutesAgree holds the two routes to identical reports.
func CheckLemma3Diamond(pr model.Protocol, c *model.Config, e model.Event, opt Options) (DiamondReport, error) {
	if err := applicable(c, e); err != nil {
		return DiamondReport{}, err
	}
	if atlas, ok := BuildAtlas(pr, c, opt); ok {
		return diamondOnAtlas(atlas, e), nil
	}
	rep := DiamondReport{Event: e}
	complete, err := Frontier(pr, c, e, opt, func(C0, D0 *model.Config, _ func() model.Schedule) bool {
		for _, ePrime := range model.Events(C0) {
			if ePrime.Same(e) || ePrime.P == e.P {
				continue
			}
			if ePrime.IsNull() && model.IsNoOp(pr, C0, ePrime) {
				continue
			}
			// Around the square: down-then-right vs right-then-down.
			left := model.MustApply(pr, D0, ePrime)
			C1 := model.MustApply(pr, C0, ePrime)
			right := model.MustApply(pr, C1, e)
			rep.Squares++
			if !left.Equal(right) {
				rep.Violations++
			}
		}
		return true
	})
	rep.Complete = complete
	return rep, err
}

// diamondOnAtlas checks every Figure 2 square on recorded adjacency. The
// atlas's out-edges are exactly the applicable non-no-op events, so the
// squares enumerated — and their count — match the direct route's; two
// routes around a square commute iff they land on the same interned node
// id, which is configuration equality by the interner's contract.
func diamondOnAtlas(a *Atlas, e model.Event) DiamondReport {
	rep := DiamondReport{Event: e, Complete: true}
	for _, u := range a.frontier(0, e).order {
		d0 := a.memberSucc(u, e)
		for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
			ePrime := a.g.SuccVia[ei]
			if ePrime.Same(e) || ePrime.P == e.P {
				continue
			}
			c1 := a.g.SuccTo[ei]
			rep.Squares++
			// Around the square: down-then-right vs right-then-down.
			left, lok := a.succByEvent(d0, ePrime)
			right, rok := a.succByEvent(c1, e)
			if !lok || !rok || left != right {
				rep.Violations++
			}
		}
	}
	return rep
}
