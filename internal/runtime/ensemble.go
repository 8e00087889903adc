package runtime

import (
	"github.com/flpsim/flp/internal/model"
)

// EnsembleResult aggregates many runs of the same experiment across seeds.
type EnsembleResult struct {
	Runs int
	// Decided counts runs in which every live process decided.
	Decided int
	// Blocked counts runs that ended without all live processes deciding.
	Blocked int
	// Violations counts runs in which two processes decided differently.
	Violations int
	// ValueCounts tallies the decision value of runs with a unique one.
	ValueCounts map[model.Value]int
	// TotalSteps, MaxSteps summarize run lengths of deciding runs.
	TotalSteps int
	MaxRun     int
}

// MeanSteps returns the mean step count of deciding runs.
func (e EnsembleResult) MeanSteps() float64 {
	if e.Decided == 0 {
		return 0
	}
	return float64(e.TotalSteps) / float64(e.Decided)
}

// RunMany executes runs independent runs with seeds base, base+1, ...,
// constructing a fresh scheduler for each (schedulers may be stateful).
func RunMany(pr model.Protocol, inputs model.Inputs, mkSched func() Scheduler, opt RunOptions, runs int) (EnsembleResult, error) {
	agg := EnsembleResult{ValueCounts: make(map[model.Value]int)}
	base := opt.Seed
	for i := 0; i < runs; i++ {
		o := opt
		o.Seed = base + int64(i)
		res, err := Run(pr, inputs, mkSched(), o)
		if err != nil {
			return agg, err
		}
		agg.Runs++
		if res.AllLiveDecided {
			agg.Decided++
			agg.TotalSteps += res.Steps
			if res.Steps > agg.MaxRun {
				agg.MaxRun = res.Steps
			}
		} else {
			agg.Blocked++
		}
		if res.AgreementViolated {
			agg.Violations++
		}
		if v, ok := res.DecidedValue(); ok && len(res.Decisions) > 0 {
			agg.ValueCounts[v]++
		}
	}
	return agg, nil
}
