package experiments

import (
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// E2InitialValency reproduces Lemma 2: a census of initial-configuration
// valencies per protocol. Fault-tolerant consensus attempts have bivalent
// initial configurations; protocols that escape the theorem's hypotheses
// (WaitAll, 2PC — not fault tolerant; Trivial0 — trivial) do not.
func E2InitialValency() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Lemma 2: initial configuration valency census (N=3, all 8 input vectors)",
		Columns: []string{"protocol", "bivalent", "0-valent", "1-valent", "unresolved", "first bivalent", "exact"},
	}

	root := func(pr model.Protocol, c *model.Config, opt explore.Options) explore.ValencyInfo {
		return explore.ClassifyRoot(pr, c, opt)
	}
	// Paxos has an unbounded reachable set: bivalence certificates come
	// from directed probes; the unanimous configurations stay formally
	// unresolved (they are univalent by Paxos validity, but certifying
	// univalence needs exhaustion).
	probe := func(pr model.Protocol, c *model.Config, opt explore.Options) explore.ValencyInfo {
		return explore.ClassifySmart(pr, c, opt, explore.ProbeOptions{})
	}
	for _, row := range []struct {
		pr       model.Protocol
		opt      explore.Options
		classify func(model.Protocol, *model.Config, explore.Options) explore.ValencyInfo
	}{
		{protocols.NewTrivial0(3), explore.Options{}, root},
		{protocols.NewWaitAll(3), explore.Options{}, root},
		{protocols.NewNaiveMajority(3), explore.Options{}, root},
		{protocols.NewTwoPhaseCommit(3), explore.Options{}, root},
		{protocols.NewPaxosSynod(3), explore.Options{MaxConfigs: 500}, probe},
	} {
		census, err := explore.Census(row.pr, row.opt, func(c *model.Config, o explore.Options) explore.ValencyInfo {
			return row.classify(row.pr, c, o)
		}, nil)
		if err != nil {
			return nil, err
		}
		first := "-"
		if census.Bivalent != nil {
			first = census.Bivalent.Inputs.String()
		}
		t.AddRow(census.Protocol,
			census.Counts[explore.Bivalent],
			census.Counts[explore.ZeroValent],
			census.Counts[explore.OneValent],
			census.Counts[explore.Unknown]+census.Counts[explore.Stuck],
			first, census.AllExact)
	}

	t.AddNote("naivemajority: 011/101/110 bivalent — the Lemma 2 prerequisite for the Theorem 1 construction")
	t.AddNote("waitall and 2pc: all univalent — their decision is a function of inputs alone; they escape FLP by not tolerating a fault")
	t.AddNote("paxos: every mixed-input configuration certified bivalent by probe witnesses; unanimous ones unresolved (univalent by validity)")
	return t, nil
}
