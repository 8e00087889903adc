package experiments

import (
	"github.com/flpsim/flp/internal/dls"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

// E10PartialSynchrony reproduces the conclusion's second escape route
// (reference [10], Dwork–Lynch–Stockmeyer): refine the timing model. Under
// a hostile adversary no decision happens before the global stabilization
// time; once rounds turn synchronous, the rotating-coordinator protocol
// decides within one coordinator rotation — and agreement holds throughout,
// whatever the adversary did first. For N = 3 the round engine also walks
// every pre-GST loss pattern; the other rows only sample seeded losses.
func E10PartialSynchrony(seeds int) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Partial-synchrony escape (DLS): no decision before GST, guaranteed decision after",
		Columns: []string{"N", "f", "GST", "pre-GST drop", "mode", "checked", "decided before GST", "all decided", "worst decision round", "agreement violations"},
	}
	type cell struct {
		n, f, gst int
		drop      float64
	}
	cells := []cell{
		{3, 1, 8, 1.0},
		{3, 1, 8, 0.7},
		{5, 2, 6, 1.0},
		{5, 2, 6, 0.5},
		{7, 3, 10, 1.0},
	}
	for _, c := range cells {
		before, allDecided, worst, violations := 0, 0, 0, 0
		in := make(model.Inputs, c.n)
		for i := 0; i < c.n/2; i++ {
			in[i] = 1
		}
		for seed := 0; seed < seeds; seed++ {
			opt := dls.Options{N: c.n, F: c.f, GST: c.gst, DropProb: c.drop, Seed: int64(seed)}
			res, err := dls.Run(opt, in)
			if err != nil {
				return nil, err
			}
			if res.FirstDecisionRound > 0 && res.FirstDecisionRound < c.gst {
				before++
			}
			if res.AllLiveDecided(opt) {
				allDecided++
			}
			for _, r := range res.DecisionRound {
				worst = max(worst, r)
			}
			if !res.Agreement {
				violations++
			}
		}
		t.AddRow(c.n, c.f, c.gst, c.drop, "sampled", seeds, before, allDecided, worst, violations)
	}
	row, err := e10Walk(model.Inputs{1, 0, 0}, 1, 8)
	if err != nil {
		return nil, err
	}
	t.AddRow(row...)
	t.AddNote("with drop=1.0 the adversary suppresses every pre-GST message between two processes: 'decided before GST' must be 0 — the FLP adversary at work; a lossy adversary lets some runs decide early")
	t.AddNote("'worst decision round' stays within GST + N: one rotation of coordinators after stabilization suffices")
	t.AddNote("the exhaustive row walks every loss of a message between two processes before GST, from the sampled rows' inputs (1, 0, 0); 'checked' counts the configurations its runs end in (one per key and round), and agreement is checked on every configuration reached")
	return t, nil
}

// e10Walk is E10's exhaustive row: a walk of DLS from in, taking every
// pre-GST loss pattern.
func e10Walk(in model.Inputs, f, gst int) ([]any, error) {
	n := len(in)
	s, err := dls.System(dls.Options{N: n, F: f, GST: gst}, in)
	if err != nil {
		return nil, err
	}
	ends, allDecided, worst, violations := 0, 0, 0, 0
	s.Walk(func(nd *syncround.Node) bool {
		var seen [2]bool
		decided := 0
		for _, pr := range nd.Procs {
			if v, ok := pr.Decide(); ok {
				seen[v], decided = true, decided+1
			}
		}
		if seen[0] && seen[1] {
			violations++
		}
		if nd.Round%4 == 0 && decided < n {
			worst = max(worst, nd.Round/4+1) // someone decides next round at the earliest
		}
		if done := s.Done(nd.Config); done || nd.Round == s.Rounds {
			ends++
			if done {
				allDecided++
			}
		}
		return true
	})
	return []any{n, f, gst, "any", "exhaustive", ends, "-", allDecided, worst, violations}, nil
}
