package explore

import "github.com/flpsim/flp/internal/model"

// Figure3Report summarizes the mechanized Case 2 of the Lemma 3 proof
// (p' = p, Figure 3). There, for neighbors C0 and C1 = e'(C0) with e and
// e' both events of the same process p, the proof takes a finite deciding
// run σ from C0 in which p takes no steps, sets A = σ(C0), and uses
// Lemma 1 twice:
//
//	e(A)      = σ(D0)   where D0 = e(C0)
//	e(e'(A))  = σ(D1)   where D1 = e(e'(C0))
//
// making A's successors hit both D-sides — so A would be bivalent, yet the
// run to A is deciding: contradiction. This checker verifies the two
// commutation equalities (the figure's arrows) on concrete configurations;
// the contradiction itself cannot materialize on a sound model, which
// TestLemma2ProofContradictionUnconstructible covers from the other side.
type Figure3Report struct {
	// Pairs is the number of (C0, e') same-process neighbor pairs
	// examined.
	Pairs int
	// SigmaFound counts pairs for which a p-free deciding run from C0
	// exists (the proof's precondition; protocols that are not fault
	// tolerant fail it, which is their escape).
	SigmaFound int
	// Violations counts commutation equalities that failed — zero for a
	// sound model.
	Violations int
	// Complete reports whether ℰ was exhausted within the budget.
	Complete bool
}

// CheckLemma3Figure3 verifies the Figure 3 commutations on every
// same-process neighbor pair in the frontier of (c, e).
//
// The expensive step is σ: one p-free forward search per member C0 of ℰ
// that has a same-process neighbor, O(V·(V+E)) across the frontier. When
// reach(C) fits the budget, the valency atlas answers every member's σ from
// a single backward pass over the reverse edges restricted to p-free
// transitions (distDecidedAvoiding), and the commutation equalities
// themselves are still verified by concrete configuration application — the
// atlas finds the runs, the model checks the arrows. Over-budget state
// spaces take the direct route below: each member Frontier hands over gets
// decidingRunAvoiding's forward search. TestLemma3RoutesAgree holds the two
// routes to identical reports.
func CheckLemma3Figure3(pr model.Protocol, c *model.Config, e model.Event, opt Options) (Figure3Report, error) {
	if err := applicable(c, e); err != nil {
		return Figure3Report{}, err
	}
	if atlas, ok := BuildAtlas(pr, c, opt); ok {
		return figure3OnAtlas(pr, atlas, e), nil
	}
	rep := Figure3Report{}
	p := e.P
	complete, err := Frontier(pr, c, e, opt, func(C0, _ *model.Config, _ func() model.Schedule) bool {
		var sigma model.Schedule
		searched, found := false, false
		for _, ePrime := range model.Events(C0) {
			if ePrime.P != p || ePrime.Same(e) {
				continue
			}
			if ePrime.IsNull() && model.IsNoOp(pr, C0, ePrime) {
				continue
			}
			rep.Pairs++
			if !searched {
				sigma, found = decidingRunAvoiding(pr, C0, p, opt)
				searched = true
			}
			if !found {
				continue
			}
			rep.SigmaFound++
			rep.Violations += figure3Violations(pr, C0, model.MustApply(pr, C0, ePrime), e, ePrime, sigma)
		}
		return true
	})
	rep.Complete = complete
	return rep, err
}

// figure3OnAtlas runs the Case 2 check with σ answered from the atlas: one
// p-free backward pass gives every node's shortest deciding-run-without-p
// length at once, and the run itself is recovered by p-free descent only
// for members that have one. The Lemma 1 commutations are then verified on
// concrete configurations exactly as on the direct route.
func figure3OnAtlas(pr model.Protocol, a *Atlas, e model.Event) Figure3Report {
	rep := Figure3Report{Complete: true}
	p := e.P
	pFree := func(ev model.Event) bool { return ev.P != p }
	dist := a.distDecidedAvoiding(p)

	for _, u := range a.frontier(0, e).order {
		var sigma model.Schedule
		haveSigma := false
		for ei := a.g.SuccStart[u]; ei < a.g.SuccStart[u+1]; ei++ {
			ePrime := a.g.SuccVia[ei]
			if ePrime.P != p || ePrime.Same(e) {
				continue
			}
			rep.Pairs++
			if dist[u] < 0 {
				continue // no p-free deciding run from this C0
			}
			rep.SigmaFound++
			if !haveSigma {
				sigma, _ = a.descendWhere(u, dist, pFree)
				haveSigma = true
			}
			rep.Violations += figure3Violations(pr, a.Config(u), a.Config(a.g.SuccTo[ei]), e, ePrime, sigma)
		}
	}
	return rep
}

// figure3Violations checks Figure 3's two arrows for neighbors C0 and
// C1 = e'(C0), with e and e' both p's events and σ a p-free deciding run
// from C0, and returns how many of the two Lemma 1 equalities failed:
//
//	e(A)     = σ(D0)   with A = σ(C0), D0 = e(C0)
//	e(e'(A)) = σ(D1)   with D1 = e(C1)
func figure3Violations(pr model.Protocol, c0, c1 *model.Config, e, ePrime model.Event, sigma model.Schedule) int {
	violations := 0
	A := model.MustApplySchedule(pr, c0, sigma)
	// e(A) = σ(D0): σ avoids p, e is p's — Lemma 1.
	if !model.MustApply(pr, A, e).Equal(model.MustApplySchedule(pr, model.MustApply(pr, c0, e), sigma)) {
		violations++
	}
	// e(e'(A)) = σ(D1): same commutation through the longer arm.
	eA := model.MustApply(pr, A, ePrime)
	if !model.MustApply(pr, eA, e).Equal(model.MustApplySchedule(pr, model.MustApply(pr, c1, e), sigma)) {
		violations++
	}
	return violations
}
