// Package adversary implements the constructive heart of Theorem 1: the
// staged scheduler from the proof of the main FLP result, which drives any
// consensus protocol through an admissible run in which no process ever
// decides.
//
// The construction follows the paper exactly. A queue of processes is
// maintained, and message delivery is ordered earliest-sent-first. Each
// stage starts in a bivalent configuration C, takes p — the head of the
// queue — and the earliest message m pending for p (or ∅ if none), and sets
// e = (p, m). Lemma 3 guarantees a bivalent configuration is reachable from
// C by a schedule in which e is the last event applied; the stage finds one
// by walking Lemma 3's frontier D = e(ℰ) (explore.Frontier) to its first
// undecided bivalent member, runs that schedule, and moves p to the back of
// the queue. Every process therefore takes infinitely many steps and
// receives every message sent to it — the run is admissible — while every
// stage ends bivalent, so no decision is ever reached.
//
// On finite-state protocols the per-stage search is exact (Lemma 3 makes
// failure impossible while the protocol meets its hypotheses). On
// unbounded protocols such as Paxos, bivalence certificates come from the
// directed probes of package explore; a stage fails only if the budget is
// exhausted, which the result reports distinctly from a decision being
// forced.
package adversary

import (
	"errors"
	"fmt"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/fifo"
	"github.com/flpsim/flp/internal/model"
)

// Options configure the adversary.
type Options struct {
	// Stages is the number of stages (queue services) to run. Each stage
	// extends the non-deciding run; the paper's run is the limit of
	// infinitely many stages.
	Stages int
	// Search bounds each stage's walk of the frontier for the extension
	// schedule σ.
	Search explore.Options
	// Valency bounds each valency classification.
	Valency explore.Options
	// Probe, when non-nil, enables directed-run bivalence certification
	// (required for protocols with unbounded reachable sets).
	Probe *explore.ProbeOptions
	// Workers, when nonzero, sets the exploration worker count for both
	// the per-stage search and the valency classifications (unless those
	// Options name their own). The construction is deterministic for any
	// worker count: every stage commits the same event via the same
	// schedule σ.
	Workers int
	// Atlases, when non-nil, is a shared atlas build cache the adversary's
	// valency cache sources its TryWarm sweeps from: repeated adversary
	// runs over the same (protocol, bounds, root) — and any census or
	// valency query naming the same tuple — then cost one exploration
	// between them. The construction is unchanged; only the sweep is
	// amortized. This is how the serving layer shares one cache across
	// every request.
	Atlases *explore.AtlasCache
}

// ForUnbounded is opt as every front end runs the adversary on a protocol
// with unbounded reachable sets (protocols.Unbounded): directed probes
// certify bivalence, within 1,500 configurations per valency classification
// and 2,000 per stage search.
func ForUnbounded(opt Options) Options {
	opt.Probe = &explore.ProbeOptions{}
	opt.Valency = explore.Options{MaxConfigs: 1500}
	opt.Search = explore.Options{MaxConfigs: 2000}
	return opt
}

func (o Options) withDefaults() Options {
	if o.Stages <= 0 {
		o.Stages = 30
	}
	if o.Search.MaxConfigs <= 0 {
		o.Search.MaxConfigs = 5000
	}
	if o.Valency.MaxConfigs <= 0 {
		o.Valency.MaxConfigs = 20000
	}
	if o.Workers != 0 {
		if o.Search.Workers == 0 {
			o.Search.Workers = o.Workers
		}
		if o.Valency.Workers == 0 {
			o.Valency.Workers = o.Workers
		}
	}
	return o
}

// Stage records one completed stage of the construction.
type Stage struct {
	// Process is the queue head serviced by this stage.
	Process model.PID
	// Committed is the event e = (p, m) applied last in the stage.
	Committed model.Event
	// Sigma is the stage's full schedule (the extension σ followed by e).
	Sigma model.Schedule
	// Examined is how many frontier configurations were inspected before a
	// bivalent extension was certified.
	Examined int
}

// Result is a constructed non-deciding admissible run prefix.
type Result struct {
	Protocol string
	Inputs   model.Inputs
	Stages   []Stage
	// Schedule is the concatenation of all stage schedules.
	Schedule model.Schedule
	// Final is the configuration after the last stage; it is bivalent.
	Final *model.Config
	// InitialOrder is the process queue order at the start.
	InitialOrder []model.PID
}

// Steps returns the total number of events in the run prefix.
func (r *Result) Steps() int { return len(r.Schedule) }

// ErrNoBivalentInitial is returned when no initial configuration of the
// protocol could be certified bivalent — the protocol is outside the
// theorem's hypotheses (it is not a fault-tolerant consensus attempt in the
// paper's sense), so the adversary has nothing to do.
var ErrNoBivalentInitial = errors.New("adversary: no bivalent initial configuration certified")

// StageError reports a stage that could not certify a bivalent extension
// within its budgets.
type StageError struct {
	Stage   int
	Process model.PID
	Event   model.Event
}

func (e *StageError) Error() string {
	return fmt.Sprintf("adversary: stage %d: no bivalent extension certified for event %s within budget", e.Stage, e.Event)
}

// Adversary drives the construction for one protocol.
type Adversary struct {
	pr    model.Protocol
	opt   Options
	cache *explore.Cache
}

// New returns an adversary for pr.
func New(pr model.Protocol, opt Options) *Adversary {
	opt = opt.withDefaults()
	var cache *explore.Cache
	if opt.Probe != nil {
		cache = explore.NewSmartCache(pr, opt.Valency, *opt.Probe)
	} else {
		cache = explore.NewCache(pr, opt.Valency)
	}
	if opt.Atlases != nil {
		cache.ShareAtlasBuilds(opt.Atlases)
	}
	return &Adversary{pr: pr, opt: opt, cache: cache}
}

// RunFromInputs constructs the non-deciding run starting from the initial
// configuration with the given inputs, which must be certifiably bivalent.
func (a *Adversary) RunFromInputs(inputs model.Inputs) (*Result, error) {
	c, err := model.Initial(a.pr, inputs)
	if err != nil {
		return nil, err
	}
	if info := a.cache.Classify(c); info.Valency != explore.Bivalent {
		return nil, fmt.Errorf("%w: inputs %s classified %s", ErrNoBivalentInitial, inputs, info.Valency)
	}
	return a.run(c, inputs)
}

// Run locates the first bivalent initial configuration (Lemma 2's census
// through the adversary's valency cache, stopped there) and constructs the
// non-deciding run from it.
func (a *Adversary) Run() (*Result, error) {
	census, err := explore.Census(a.pr, a.opt.Valency, a.cache.ClassifyWith, func(iv explore.InitialValency) bool {
		return iv.Info.Valency != explore.Bivalent
	})
	if err != nil {
		return nil, err
	}
	if census.Bivalent == nil {
		return nil, ErrNoBivalentInitial
	}
	in := census.Bivalent.Inputs
	return a.run(model.MustInitial(a.pr, in), in)
}

// Extend continues a previously constructed run for additional stages —
// the paper's run is the limit of infinitely many stages, and Extend is
// the "keep going" operation that limit is built from. The queue order and
// FIFO bookkeeping are reconstructed by replaying the existing schedule,
// so the extension is exactly what an uninterrupted longer run would have
// produced. The result is extended in place and also returned.
func (a *Adversary) Extend(res *Result, stages int) (*Result, error) {
	cfg, err := model.Initial(a.pr, res.Inputs)
	if err != nil {
		return nil, err
	}
	tracker := fifo.New()
	if cfg, err = advance(a.pr, cfg, tracker, res.Schedule); err != nil {
		return nil, fmt.Errorf("adversary: replaying prefix: %w", err)
	}
	if !cfg.Equal(res.Final) {
		return nil, fmt.Errorf("adversary: result prefix does not replay to its final configuration")
	}
	queue := append([]model.PID(nil), res.InitialOrder...)
	for range res.Stages {
		queue = append(queue[1:], queue[0])
	}
	return a.stages(res, cfg, tracker, queue, stages)
}

func (a *Adversary) run(c *model.Config, inputs model.Inputs) (*Result, error) {
	n := a.pr.N()
	queue := make([]model.PID, n)
	for i := range queue {
		queue[i] = model.PID(i)
	}
	res := &Result{
		Protocol:     a.pr.Name(),
		Inputs:       inputs,
		Final:        c,
		InitialOrder: append([]model.PID(nil), queue...),
	}
	return a.stages(res, c, fifo.NewFromConfig(c), queue, a.opt.Stages)
}

// stages appends the given number of stages to res, starting from the
// supplied configuration, tracker, and queue state.
func (a *Adversary) stages(res *Result, cfg *model.Config, tracker *fifo.Tracker, queue []model.PID, count int) (*Result, error) {
	// Every configuration any stage classifies lies in reach(cfg), and the
	// reachable set only shrinks as the run advances — so one valency atlas
	// built here answers every classification of every stage from a single
	// O(V+E) sweep. Probe-configured adversaries target unbounded state
	// spaces where the sweep cannot complete; they skip the attempt rather
	// than pay a failed full-budget exploration (TryWarm would memoize the
	// failure, but the first sweep alone is the whole cost).
	if a.opt.Probe == nil {
		a.cache.TryWarm(cfg)
	}
	res.Final = cfg
	for stage := 0; stage < count; stage++ {
		p := queue[0]
		var e model.Event
		if m, ok := tracker.Oldest(p); ok {
			e = model.Deliver(m)
		} else {
			e = model.NullEvent(p)
		}

		st, cfg, err := a.stage(res.Final, e, tracker)
		if err != nil {
			var serr *StageError
			if errors.As(err, &serr) {
				serr.Stage = len(res.Stages) // absolute, so Extend reports correctly
				serr.Process = p
			}
			return res, err
		}
		st.Process = p
		res.Stages = append(res.Stages, st)
		res.Schedule = append(res.Schedule, st.Sigma...)
		res.Final = cfg
		queue = append(queue[1:], p)
	}
	return res, nil
}

// stage is one application of Lemma 3 to the bivalent cur: it walks
// explore.Frontier for e, stops at the first member E whose D = e(E) is
// undecided and bivalent, and applies the schedule σ·e that reaches it,
// advancing the tracker alongside. Examined counts the members walked, the
// certified one included.
func (a *Adversary) stage(cur *model.Config, e model.Event, tracker *fifo.Tracker) (Stage, *model.Config, error) {
	st := Stage{Committed: e}
	_, err := explore.Frontier(a.pr, cur, e, a.opt.Search, func(_, D *model.Config, path func() model.Schedule) bool {
		st.Examined++
		// For a partially correct protocol, bivalent implies undecided
		// (a configuration with a decision is univalent), so requiring
		// DecidedCount() == 0 changes nothing within the theorem's
		// hypotheses. For protocols that violate agreement, a
		// configuration can be "bivalent" because both values are already
		// decided — such protocols escape the impossibility by giving up
		// agreement, and the stage correctly fails on them.
		if D.DecidedCount() == 0 && a.cache.Classify(D).Valency == explore.Bivalent {
			st.Sigma = append(path(), e)
			return false
		}
		return true
	})
	if err != nil {
		return Stage{}, nil, err
	}
	if st.Sigma == nil {
		return Stage{}, nil, &StageError{Event: e}
	}
	cfg, err := advance(a.pr, cur, tracker, st.Sigma)
	if err != nil {
		return Stage{}, nil, fmt.Errorf("adversary: applying stage schedule: %w", err)
	}
	return st, cfg, nil
}

// advance applies sched to cfg, moving the FIFO tracker alongside: the one
// loop by which a stage commits its σ·e and Extend replays a recorded run.
// Verify keeps its own replay, so that it checks the run independently.
func advance(pr model.Protocol, cfg *model.Config, tracker *fifo.Tracker, sched model.Schedule) (*model.Config, error) {
	for _, e := range sched {
		nc, sends, err := model.ApplyTraced(pr, cfg, e)
		if err != nil {
			return nil, err
		}
		if err := tracker.Advance(e, sends); err != nil {
			return nil, err
		}
		cfg = nc
	}
	return cfg, nil
}
