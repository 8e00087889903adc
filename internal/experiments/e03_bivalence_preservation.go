package experiments

import (
	"fmt"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// E3BivalencePreservation reproduces Lemma 3 (Figures 2–3): from a bivalent
// configuration C and any applicable event e, the frontier
// D = e(reach(C) without e) contains a bivalent configuration. The census
// is exhaustive on the finite fixture, covering every applicable event of
// the bivalent initial configuration and of a deeper bivalent configuration
// with messages in flight; the last row is the lemma at every (bivalent C,
// applicable e) pair of the initial configuration's atlas.
func E3BivalencePreservation() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Lemma 3 (Figures 2-3): every frontier D = e(ℰ) contains a bivalent configuration",
		Columns: []string{"configuration", "event e", "|ℰ| examined", "bivalent in D", "|σ| to witness", "frontier exhausted"},
	}
	pr := protocols.NewNaiveMajority(3)
	c0, _, ok := explore.FindBivalentInitial(pr, explore.Options{})
	if !ok {
		return nil, fmt.Errorf("experiments: no bivalent initial configuration")
	}
	cache := explore.NewCache(pr, explore.Options{})

	addAll := func(label string, c *model.Config) error {
		for _, e := range model.Events(c) {
			if e.IsNull() && model.IsNoOp(pr, c, e) {
				continue
			}
			res, err := explore.CensusLemma3(pr, c, e, explore.Options{}, cache)
			if err != nil {
				return err
			}
			t.AddRow(label, e.String(), res.FrontierSize, res.BivalentFound, len(res.Sigma), res.Complete)
		}
		return nil
	}
	if err := addAll("bivalent initial (011)", c0); err != nil {
		return nil, err
	}

	// A deeper bivalent configuration: two processes have broadcast, six
	// votes are in flight.
	deep := model.MustApplySchedule(pr, c0, model.Schedule{model.NullEvent(0), model.NullEvent(2)})
	if cache.Classify(deep).Valency == explore.Bivalent {
		if err := addAll("after p0,p2 broadcast", deep); err != nil {
			return nil, err
		}
	}
	// The lemma at every pair of the whole atlas: each bivalent C of
	// reach(011), each event applicable there.
	atlas, ok := explore.BuildAtlas(pr, c0, explore.Options{})
	if !ok {
		return nil, fmt.Errorf("experiments: reach(011) has no atlas")
	}
	pairs, holds := 0, 0
	for _, tl := range explore.Lemma3Atlas(atlas) {
		pairs, holds = pairs+tl.Pairs, holds+tl.Holds
	}
	t.AddRow(fmt.Sprintf("whole atlas of 011 (%d bivalent C)", atlas.Census()[explore.Bivalent]),
		fmt.Sprintf("every e: %d of %d hold", holds, pairs), "-", holds == pairs, "-", true)

	// Figure 2's commutativity squares, verified around one committed
	// event per configuration.
	squares, violations := 0, 0
	for _, tc := range []struct {
		c *model.Config
		e model.Event
	}{
		{c0, model.NullEvent(0)},
		{deep, model.NullEvent(1)},
	} {
		rep, err := explore.CheckLemma3Diamond(pr, tc.c, tc.e, explore.Options{})
		if err != nil {
			return nil, err
		}
		squares += rep.Squares
		violations += rep.Violations
	}
	f3, err := explore.CheckLemma3Figure3(pr, deep, model.NullEvent(1), explore.Options{})
	if err != nil {
		return nil, err
	}
	t.AddNote("'bivalent in D' must be true on every row — that is Lemma 3; |σ| counts the events of the witness schedule ending in e")
	t.AddNote("whole atlas: one backward pass per event over reach(011) decides every pair (explore.Lemma3Atlas); a failure would carry a blocking certificate")
	t.AddNote("Figure 2 diamonds: %d neighbor commutativity squares verified around the committed events, %d violations", squares, violations)
	t.AddNote("Figure 3 (same-process case): %d pairs, %d with a p-free deciding run σ, %d commutation violations", f3.Pairs, f3.SigmaFound, f3.Violations)
	return t, nil
}
