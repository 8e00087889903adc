package explore

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// Lemma2ProofStep is the mechanized argument from the proof of Lemma 2 for
// one adjacent pair of initial configurations C0, C1 differing only in the
// input of process p:
//
//	"Now consider some admissible deciding run from C0 in which process p
//	takes no steps, and let σ be the associated schedule. Then σ can be
//	applied to C1 also, and corresponding configurations in the two runs
//	are identical except for the internal state of process p. It is easily
//	shown that both runs eventually reach the same decision value."
//
// Each field records one sentence of that argument, checked on the real
// system.
type Lemma2ProofStep struct {
	// Pair identifies the adjacent initial configurations and the
	// process whose input differs.
	Zero, One model.Inputs
	Differ    model.PID
	// SigmaFound reports whether a deciding schedule from C0 avoiding p
	// exists within the budget. Protocols outside Lemma 2's hypotheses —
	// not tolerating even the "crash" of p — fail here, which is exactly
	// how they escape the lemma.
	SigmaFound bool
	// Sigma is the deciding p-free schedule from C0, when found.
	Sigma model.Schedule
	// AppliesToOne reports that σ is applicable to C1 (it must be: the
	// two configurations differ only inside p, which takes no steps).
	AppliesToOne bool
	// SameDecision reports that σ(C0) and σ(C1) carry the same decision
	// value — the contradiction, since C0 is 0-valent and C1 is 1-valent.
	SameDecision bool
	// Decision is that common value.
	Decision model.Value
}

// Contradiction reports whether the proof's contradiction was produced:
// a p-free deciding run whose decision both sides share, impossible if C0
// and C1 are genuinely 0- and 1-valent.
func (s Lemma2ProofStep) Contradiction() bool {
	return s.SigmaFound && s.AppliesToOne && s.SameDecision
}

// CheckLemma2Proof runs the Lemma 2 proof argument against a protocol.
// For every adjacent 0-valent/1-valent pair of initial configurations it
// attempts the construction above. Outcomes:
//
//   - A protocol satisfying Lemma 2's conclusion has no such pair (some
//     initial configuration is bivalent), so the returned slice is empty —
//     the lemma holds vacuously at this layer and the census (Lemma 2
//     itself) exhibits the bivalent configuration.
//   - A protocol violating Lemma 2's conclusion while satisfying its
//     hypotheses would yield a step with Contradiction() == true — which
//     is impossible, so observing one falsifies the model.
//   - A protocol outside the hypotheses (WaitAll: cannot decide with a
//     silent process) yields steps with SigmaFound == false: the proof's
//     very first move is what its fault-tolerance assumption buys.
func CheckLemma2Proof(pr model.Protocol, opt Options) ([]Lemma2ProofStep, error) {
	census, err := CensusInitial(pr, opt)
	if err != nil {
		return nil, err
	}
	return census.Lemma2Proof(pr, opt)
}

// Lemma2Proof is CheckLemma2Proof on a census already taken, so a caller
// that has classified the initial configurations does not classify them
// again. The census must be of pr and complete (not stopped early).
func (ic InitialCensus) Lemma2Proof(pr model.Protocol, opt Options) ([]Lemma2ProofStep, error) {
	var steps []Lemma2ProofStep
	for _, zero := range ic.PerInput {
		if !zero.Info.Exact || zero.Info.Valency != ZeroValent {
			continue
		}
		for _, one := range ic.PerInput {
			if !one.Info.Exact || one.Info.Valency != OneValent {
				continue
			}
			p, ok := zero.Inputs.AdjacentTo(one.Inputs)
			if !ok {
				continue
			}
			step, err := lemma2ProofStep(pr, zero.Inputs, one.Inputs, p, opt)
			if err != nil {
				return nil, err
			}
			steps = append(steps, step)
		}
	}
	return steps, nil
}

func lemma2ProofStep(pr model.Protocol, zero, one model.Inputs, p model.PID, opt Options) (Lemma2ProofStep, error) {
	step := Lemma2ProofStep{Zero: zero, One: one, Differ: p}
	c0, err := model.Initial(pr, zero)
	if err != nil {
		return step, err
	}
	c1, err := model.Initial(pr, one)
	if err != nil {
		return step, err
	}

	// Search for a deciding schedule from C0 in which p takes no steps.
	skip := func(e model.Event) bool { return e.P == p }
	var sigma model.Schedule
	ExploreFiltered(pr, c0, opt, skip, func(cfg *model.Config, _ int, path func() model.Schedule) bool {
		if len(cfg.DecisionValues()) > 0 {
			sigma = path()
			step.SigmaFound = true
			return true
		}
		return false
	})
	if !step.SigmaFound {
		return step, nil
	}
	step.Sigma = sigma

	d0 := model.MustApplySchedule(pr, c0, sigma)
	d1, err := model.ApplySchedule(pr, c1, sigma)
	if err != nil {
		return step, fmt.Errorf("explore: σ not applicable to C1, contradicting Lemma 1: %w", err)
	}
	step.AppliesToOne = true

	v0 := d0.DecisionValues()
	v1 := d1.DecisionValues()
	if len(v0) == 1 && len(v1) == 1 && v0[0] == v1[0] {
		step.SameDecision = true
		step.Decision = v0[0]
	}
	return step, nil
}
