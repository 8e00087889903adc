package explore

import (
	"github.com/flpsim/flp/internal/model"
)

// InitialValency is the classification of one initial configuration.
type InitialValency struct {
	Inputs model.Inputs
	Info   ValencyInfo
}

// AdjacentPair is a pair of initial configurations differing in the input
// of exactly one process, with the valency of each side — the object at the
// heart of the Lemma 2 proof: a 0-valent initial configuration adjacent to
// a 1-valent one forces a bivalent one (by delaying the differing process).
type AdjacentPair struct {
	Zero, One model.Inputs
	Differ    model.PID
}

// InitialCensus is the result of classifying every initial configuration of
// a protocol — the mechanized content of Lemma 2.
type InitialCensus struct {
	Protocol string
	N        int
	PerInput []InitialValency
	// Counts tallies classifications.
	Counts map[Valency]int
	// Bivalent is the first bivalent initial configuration found, if any.
	Bivalent *InitialValency
	// Adjacent is a 0-valent/1-valent adjacent pair, when one exists among
	// the exactly-classified configurations; the Lemma 2 proof derives a
	// contradiction from such a pair, so for protocols where Lemma 2
	// applies, finding one alongside no bivalent configuration would
	// falsify the lemma.
	Adjacent *AdjacentPair
	// AllExact reports whether every classification was definitive.
	AllExact bool
}

// Census is Lemma 2's loop, the one place initial configurations are
// classified: it classifies each of pr's 2^N initial configurations with
// classify, and tallies the census in AllInputs order. each, when non-nil,
// sees every classified root in that order and stops the census by
// returning false; a stopped census covers only the roots each saw.
//
// classify decides what the census costs and means: ClassifyRoot (the
// CensusInitial census), ClassifyRootCached over a shared AtlasCache,
// budgeted Classify, ClassifySmart for unbounded state spaces, or a
// valency Cache's ClassifyWith. It is handed the Options one root may
// spend, which differ from opt only in Workers, since opt.Workers is
// spent on roots (see Options.Workers); it should spend no more. It may
// run on several goroutines at once, and up to Workers−1 roots past a
// stop may be classified and dropped.
func Census(pr model.Protocol, opt Options, classify func(*model.Config, Options) ValencyInfo, each func(InitialValency) bool) (InitialCensus, error) {
	census := InitialCensus{
		Protocol: pr.Name(),
		N:        pr.N(),
		Counts:   make(map[Valency]int),
		AllExact: true,
	}
	err := eachRoot(pr, opt, each != nil, func(in model.Inputs, c *model.Config, o Options) InitialValency {
		return InitialValency{Inputs: in, Info: classify(c, o)}
	}, func(iv InitialValency) bool {
		census.PerInput = append(census.PerInput, iv)
		census.Counts[iv.Info.Valency]++
		census.AllExact = census.AllExact && iv.Info.Exact
		if iv.Info.Valency == Bivalent && census.Bivalent == nil {
			first := iv
			census.Bivalent = &first
		}
		return each == nil || each(iv)
	})
	if err != nil {
		return census, err
	}
	census.Adjacent = findAdjacentPair(census.PerInput)
	return census, nil
}

// CensusInitial classifies all 2^N initial configurations of pr.
//
// Each root whose reachable set fits the budget is classified from a
// valency atlas: one graph sweep plus a backward pass — the same
// exhaustive cost the univalent and stuck roots (the bulk of a census)
// already paid under per-configuration search, now also yielding exact
// classifications with shortest witnesses for both decision values at
// bivalent roots. Roots whose state space exceeds the budget fall back to
// budgeted Classify, unchanged.
func CensusInitial(pr model.Protocol, opt Options) (InitialCensus, error) {
	return Census(pr, opt, func(c *model.Config, o Options) ValencyInfo { return ClassifyRoot(pr, c, o) }, nil)
}

// ClassifyRoot classifies one exploration root: from a valency atlas over
// its reachable set when the budget allows — exact for all four classes,
// with shortest witnesses for both decision values — and by budgeted
// per-configuration Classify otherwise. This is the per-root engine
// behind CensusInitial; the serving layer calls it (via
// ClassifyRootCached) at each request's budget. flpcheck's Lemma 2 table
// reads it too on a finite protocol, but classifies an unbounded one
// (paxos, benor) by directed probes, so there a served answer can be
// unknown where flpcheck prints bivalent.
func ClassifyRoot(pr model.Protocol, c *model.Config, opt Options) ValencyInfo {
	if atlas, ok := BuildAtlas(pr, c, opt); ok {
		return atlas.InfoAt(0)
	}
	return Classify(pr, c, opt)
}

// ClassifyRootCached is ClassifyRoot sourcing its atlas from ac: the
// first call for a (protocol, bounds, root) tuple pays the build, every
// later call — concurrent or not — reads the shared atlas. Results are
// identical to ClassifyRoot's, both paths being deterministic; only the
// cost changes.
func ClassifyRootCached(pr model.Protocol, c *model.Config, opt Options, ac *AtlasCache) ValencyInfo {
	if atlas, ok := ac.Get(pr, c, opt); ok {
		return atlas.InfoAt(0)
	}
	return Classify(pr, c, opt)
}

// findAdjacentPair scans classified initial configurations for a 0-valent
// one adjacent to a 1-valent one (exact classifications only).
func findAdjacentPair(ivs []InitialValency) *AdjacentPair {
	for i := range ivs {
		if !ivs[i].Info.Exact || ivs[i].Info.Valency != ZeroValent {
			continue
		}
		for j := range ivs {
			if !ivs[j].Info.Exact || ivs[j].Info.Valency != OneValent {
				continue
			}
			if p, ok := ivs[i].Inputs.AdjacentTo(ivs[j].Inputs); ok {
				return &AdjacentPair{Zero: ivs[i].Inputs, One: ivs[j].Inputs, Differ: p}
			}
		}
	}
	return nil
}

// FindBivalentInitial returns a bivalent initial configuration of pr,
// classifying input assignments in order with budgeted Classify and
// stopping at the first bivalent one. It reports ok=false if none was
// certified within the budget.
func FindBivalentInitial(pr model.Protocol, opt Options) (*model.Config, model.Inputs, bool) {
	census, err := Census(pr, opt, func(c *model.Config, o Options) ValencyInfo { return Classify(pr, c, o) }, func(iv InitialValency) bool {
		return iv.Info.Valency != Bivalent
	})
	if err != nil || census.Bivalent == nil {
		return nil, nil, false
	}
	in := census.Bivalent.Inputs
	return model.MustInitial(pr, in), in, true
}
