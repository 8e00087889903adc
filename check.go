package flp

import (
	"github.com/flpsim/flp/internal/explore"
)

// Valency classifies a configuration by the set of decision values
// reachable from it.
type Valency = explore.Valency

// Valency classes.
const (
	Unknown    = explore.Unknown
	Stuck      = explore.Stuck
	ZeroValent = explore.ZeroValent
	OneValent  = explore.OneValent
	Bivalent   = explore.Bivalent
)

// Checker option and result types, re-exported from the internal checker.
type (
	// CheckOptions bound an exploration.
	CheckOptions = explore.Options
	// ProbeOptions configure directed bivalence probes.
	ProbeOptions = explore.ProbeOptions
	// ValencyInfo is one configuration's classification with witnesses.
	ValencyInfo = explore.ValencyInfo
	// InitialCensus is the Lemma 2 census over initial configurations.
	InitialCensus = explore.InitialCensus
	// Lemma3Result is the Lemma 3 frontier examination.
	Lemma3Result = explore.Lemma3Result
	// PartialCorrectnessReport covers agreement and nontriviality.
	PartialCorrectnessReport = explore.PartialCorrectnessReport
	// ValencyCache memoizes classifications by configuration.
	ValencyCache = explore.Cache
)

// Classify computes the valency of c under pr within the budget. Bivalence
// results carry two concrete witness schedules and are exact even when the
// budget truncated the search; univalence claims require exhaustion.
func Classify(pr Protocol, c *Config, opt CheckOptions) ValencyInfo {
	return explore.Classify(pr, c, opt)
}

// ClassifySmart adds directed probe runs before the breadth-first search,
// certifying bivalence cheaply on protocols with unbounded state spaces.
func ClassifySmart(pr Protocol, c *Config, opt CheckOptions, popt ProbeOptions) ValencyInfo {
	return explore.ClassifySmart(pr, c, opt, popt)
}

// CensusInitial classifies every initial configuration of pr (Lemma 2).
func CensusInitial(pr Protocol, opt CheckOptions) (InitialCensus, error) {
	return explore.CensusInitial(pr, opt)
}

// FindBivalentInitial returns a certified bivalent initial configuration.
func FindBivalentInitial(pr Protocol, opt CheckOptions) (*Config, Inputs, bool) {
	return explore.FindBivalentInitial(pr, opt)
}

// CensusLemma3 examines the frontier D = e(reach(C) without e) and locates
// its bivalent members (Lemma 3).
func CensusLemma3(pr Protocol, c *Config, e Event, opt CheckOptions, cache *ValencyCache) (Lemma3Result, error) {
	return explore.CensusLemma3(pr, c, e, opt, cache)
}

// DiamondReport summarizes the Figure 2 commutativity-square check.
type DiamondReport = explore.DiamondReport

// CheckLemma3Diamond verifies the Figure 2 commutativity squares (Lemma 1
// instantiated where the Lemma 3 proof uses it) on every neighbor pair in
// the frontier of (c, e).
func CheckLemma3Diamond(pr Protocol, c *Config, e Event, opt CheckOptions) (DiamondReport, error) {
	return explore.CheckLemma3Diamond(pr, c, e, opt)
}

// CheckPartialCorrectness verifies the two partial-correctness conditions
// of Section 2 over all accessible configurations.
func CheckPartialCorrectness(pr Protocol, opt CheckOptions) (PartialCorrectnessReport, error) {
	return explore.CheckPartialCorrectness(pr, opt)
}

// CheckCommutativity verifies Lemma 1 on one concrete instance.
func CheckCommutativity(pr Protocol, c *Config, s1, s2 Schedule) error {
	return explore.CheckCommutativity(pr, c, s1, s2)
}

// NewValencyCache returns a memoizing classifier with a fixed budget.
func NewValencyCache(pr Protocol, opt CheckOptions) *ValencyCache {
	return explore.NewCache(pr, opt)
}

// ValencyAtlas is a one-pass classification of an entire reachable
// configuration graph: every node's exact valency, witness lengths, and
// shortest witness schedules, computed in O(V+E) total.
type ValencyAtlas = explore.Atlas

// BuildValencyAtlas materializes the reachable graph of pr from root and
// classifies every node. It reports ok=false when the state space exceeds
// opt's budget; callers then fall back to Classify.
// Attach the atlas to a cache with ValencyCache.Warm, or let CensusLemma3
// and the adversary build and share one automatically.
func BuildValencyAtlas(pr Protocol, root *Config, opt CheckOptions) (*ValencyAtlas, bool) {
	return explore.BuildAtlas(pr, root, opt)
}

// Reachable reports whether target is reachable from c, with a witness.
func Reachable(pr Protocol, c, target *Config, opt CheckOptions) (Schedule, bool) {
	return explore.Reachable(pr, c, target, opt)
}

// Lemma2ProofStep is one mechanized instance of the Lemma 2 proof
// argument on an adjacent pair of univalent initial configurations.
type Lemma2ProofStep = explore.Lemma2ProofStep

// CheckLemma2Proof runs the Lemma 2 proof argument (the deciding run in
// which the differing process takes no steps, applied to both sides of an
// adjacent univalent pair) against pr. See the explore package for the
// outcome taxonomy.
func CheckLemma2Proof(pr Protocol, opt CheckOptions) ([]Lemma2ProofStep, error) {
	return explore.CheckLemma2Proof(pr, opt)
}

// Figure3Report summarizes the mechanized Case 2 of the Lemma 3 proof.
type Figure3Report = explore.Figure3Report

// CheckLemma3Figure3 verifies the Figure 3 commutations (the p-free
// deciding run σ applied around both extensions) on every same-process
// neighbor pair in the frontier of (c, e).
func CheckLemma3Figure3(pr Protocol, c *Config, e Event, opt CheckOptions) (Figure3Report, error) {
	return explore.CheckLemma3Figure3(pr, c, e, opt)
}
