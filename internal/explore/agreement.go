package explore

import (
	"github.com/flpsim/flp/internal/model"
)

// AgreementViolation is a witness that some accessible configuration has
// two decision values: the input assignment it starts from and the schedule
// reaching the violating configuration.
type AgreementViolation struct {
	Inputs   model.Inputs
	Schedule model.Schedule
	// Deciders maps each decision value to a process holding it in the
	// violating configuration.
	Deciders map[model.Value]model.PID
}

// PartialCorrectnessReport is the result of checking the two conditions of
// partial correctness from Section 2:
//
//  1. No accessible configuration has more than one decision value.
//  2. For each v ∈ {0, 1}, some accessible configuration has decision
//     value v.
type PartialCorrectnessReport struct {
	Protocol string
	// AgreementHolds is true when no violating configuration was found.
	// Definitive only when Complete.
	AgreementHolds bool
	// Violation is the first violation found, if any.
	Violation *AgreementViolation
	// ValuesSeen records which decision values occur in some accessible
	// configuration (condition 2 requires both).
	ValuesSeen map[model.Value]bool
	// Nontrivial is true when both decision values occur.
	Nontrivial bool
	// Configs is the total number of distinct configurations examined
	// across all initial configurations.
	Configs int
	// Complete reports whether every initial configuration's reachable
	// set was exhausted within the budget.
	Complete bool
}

// CheckPartialCorrectness explores the accessible configurations of pr
// (from every initial configuration) and checks both partial-correctness
// conditions. Exploration of each initial configuration is bounded by opt;
// opt.Workers is spent on roots (see Options.Workers), and the report,
// its first Violation included, is the one the roots give in AllInputs
// order.
func CheckPartialCorrectness(pr model.Protocol, opt Options) (PartialCorrectnessReport, error) {
	rep := PartialCorrectnessReport{
		Protocol:       pr.Name(),
		AgreementHolds: true,
		ValuesSeen:     make(map[model.Value]bool),
		Complete:       true,
	}
	err := eachRoot(pr, opt, false, func(in model.Inputs, c *model.Config, o Options) rootCheck {
		return checkRoot(pr, in, c, o)
	}, func(r rootCheck) bool {
		for v, seen := range r.seen {
			if seen {
				rep.ValuesSeen[model.Value(v)] = true
			}
		}
		if r.violation != nil && rep.Violation == nil {
			rep.AgreementHolds = false
			rep.Violation = r.violation
		}
		rep.Configs += r.visited
		rep.Complete = rep.Complete && r.complete
		return true
	})
	if err != nil {
		return rep, err
	}
	rep.Nontrivial = rep.ValuesSeen[model.V0] && rep.ValuesSeen[model.V1]
	return rep, nil
}

// rootCheck is what one root contributes to a PartialCorrectnessReport.
type rootCheck struct {
	seen      [2]bool // decision values seen, by value
	violation *AgreementViolation
	visited   int
	complete  bool
}

// checkRoot explores the accessible configurations of pr's root c, inputs
// in, for CheckPartialCorrectness.
func checkRoot(pr model.Protocol, in model.Inputs, c *model.Config, opt Options) rootCheck {
	var r rootCheck
	r.complete, r.visited = Explore(pr, c, opt, nil, func(cfg *model.Config, _ int, path func() model.Schedule) bool {
		vs := cfg.DecisionValues()
		for _, v := range vs {
			r.seen[v] = true
		}
		if len(vs) == 2 && r.violation == nil {
			r.violation = &AgreementViolation{
				Inputs:   in,
				Schedule: path(),
				Deciders: decidersOf(cfg),
			}
		}
		return false
	})
	return r
}

func decidersOf(cfg *model.Config) map[model.Value]model.PID {
	d := make(map[model.Value]model.PID)
	for p := 0; p < cfg.N(); p++ {
		o := cfg.Output(model.PID(p))
		if o.Decided() {
			if _, ok := d[o.Value()]; !ok {
				d[o.Value()] = model.PID(p)
			}
		}
	}
	return d
}
