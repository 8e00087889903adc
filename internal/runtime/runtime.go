// Package runtime is the concrete asynchronous executor: it runs a
// protocol under a pluggable scheduler with crash injection and reports
// what happened. Where package explore quantifies over all message-system
// behaviours, the runtime samples one behaviour at a time — it is the
// testbed for the "in practice these protocols decide quickly" half of
// every experiment, and for fault injection (initially dead processes,
// crash-stop after k steps, indefinitely delayed processes).
package runtime

import (
	"fmt"
	"math/rand"

	"github.com/flpsim/flp/internal/fifo"
	"github.com/flpsim/flp/internal/model"
)

// Sim is the mutable simulation state exposed to schedulers.
type Sim struct {
	pr      model.Protocol
	cfg     *model.Config
	tracker *fifo.Tracker
	rng     *rand.Rand
	steps   int
	stepsBy []int
	crashAt []int // step count at which each process crash-stops; -1 = never
}

// Config returns the current configuration.
func (s *Sim) Config() *model.Config { return s.cfg }

// Tracker returns the FIFO view of the message buffer.
func (s *Sim) Tracker() *fifo.Tracker { return s.tracker }

// Rand returns the run's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Alive reports whether p may still take steps: crashed processes (and
// initially dead ones, which crash at step 0) never do. This is the
// paper's crash-stop fault: a dead process is indistinguishable from a
// very slow one, and the runtime simply stops scheduling it.
func (s *Sim) Alive(p model.PID) bool {
	return s.crashAt[p] < 0 || s.stepsBy[p] < s.crashAt[p]
}

// LiveProcesses returns the processes still allowed to take steps.
func (s *Sim) LiveProcesses() []model.PID {
	var live []model.PID
	for p := 0; p < s.cfg.N(); p++ {
		if s.Alive(model.PID(p)) {
			live = append(live, model.PID(p))
		}
	}
	return live
}

// Effectful reports whether event e would change the system state —
// schedulers use it to avoid burning steps on no-op null events.
func (s *Sim) Effectful(e model.Event) bool {
	return !e.IsNull() || !model.IsNoOp(s.pr, s.cfg, e)
}

// Scheduler chooses the next event of a run. Returning ok=false means the
// scheduler has no event to offer (the run is quiescent under its policy).
type Scheduler interface {
	Name() string
	Next(s *Sim) (model.Event, bool)
}

// RunOptions configure a single run.
type RunOptions struct {
	// MaxSteps bounds the run. Default 10000.
	MaxSteps int
	// Seed seeds the scheduler's random source.
	Seed int64
	// CrashAfter maps a process to the number of steps after which it
	// crash-stops. Zero means initially dead (it never takes a step).
	CrashAfter map[model.PID]int
	// RunToCompletion keeps the run going until quiescence or MaxSteps
	// even after every live process has decided. Default false: stop once
	// all live processes have decided.
	RunToCompletion bool
	// RecordSchedule retains the full event sequence in the result.
	RecordSchedule bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 10000
	}
	return o
}

// RunResult reports one run.
type RunResult struct {
	Protocol  string
	Scheduler string
	Inputs    model.Inputs
	Steps     int
	// Decisions maps each decided process to its decision value.
	Decisions map[model.PID]model.Value
	// AllLiveDecided reports whether every non-crashed process decided.
	AllLiveDecided bool
	// AgreementViolated reports whether two processes decided differently.
	AgreementViolated bool
	// Blocked reports that the run ended (quiescent or out of steps)
	// before every live process decided.
	Blocked bool
	// Quiescent reports that the scheduler ran out of events.
	Quiescent bool
	// Schedule is the event sequence (only when RecordSchedule was set).
	Schedule model.Schedule
	// Final is the last configuration.
	Final *model.Config
}

// DecidedValue returns the unique decision value, if exactly one exists.
func (r *RunResult) DecidedValue() (model.Value, bool) {
	seen := make(map[model.Value]bool)
	for _, v := range r.Decisions {
		seen[v] = true
	}
	if len(seen) == 1 {
		for v := range seen {
			return v, true
		}
	}
	return 0, false
}

// Run executes pr from the given inputs under sched.
func Run(pr model.Protocol, inputs model.Inputs, sched Scheduler, opt RunOptions) (*RunResult, error) {
	opt = opt.withDefaults()
	cfg, err := model.Initial(pr, inputs)
	if err != nil {
		return nil, err
	}
	n := pr.N()
	sim := &Sim{
		pr:      pr,
		cfg:     cfg,
		tracker: fifo.New(),
		rng:     rand.New(rand.NewSource(opt.Seed)),
		stepsBy: make([]int, n),
		crashAt: make([]int, n),
	}
	for p := range sim.crashAt {
		sim.crashAt[p] = -1
	}
	for p, k := range opt.CrashAfter {
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("runtime: CrashAfter names process %d of %d", p, n)
		}
		sim.crashAt[p] = k
	}

	res := &RunResult{
		Protocol:  pr.Name(),
		Scheduler: sched.Name(),
		Inputs:    inputs,
		Decisions: make(map[model.PID]model.Value),
	}

	for sim.steps < opt.MaxSteps {
		if !opt.RunToCompletion && allLiveDecided(sim) {
			break
		}
		e, ok := sched.Next(sim)
		if !ok {
			res.Quiescent = true
			break
		}
		if !sim.Alive(e.P) {
			return nil, fmt.Errorf("runtime: scheduler %s stepped crashed process %d", sched.Name(), e.P)
		}
		nc, sends, err := model.ApplyTraced(pr, sim.cfg, e)
		if err != nil {
			return nil, fmt.Errorf("runtime: step %d: %w", sim.steps, err)
		}
		if err := sim.tracker.Advance(e, sends); err != nil {
			return nil, fmt.Errorf("runtime: step %d: %w", sim.steps, err)
		}
		sim.cfg = nc
		sim.steps++
		sim.stepsBy[e.P]++
		if opt.RecordSchedule {
			res.Schedule = append(res.Schedule, e)
		}
	}

	res.Steps = sim.steps
	res.Final = sim.cfg
	for p := 0; p < n; p++ {
		if o := sim.cfg.Output(model.PID(p)); o.Decided() {
			res.Decisions[model.PID(p)] = o.Value()
		}
	}
	res.AllLiveDecided = allLiveDecided(sim)
	res.Blocked = !res.AllLiveDecided
	seen := make(map[model.Value]bool)
	for _, v := range res.Decisions {
		seen[v] = true
	}
	res.AgreementViolated = len(seen) > 1
	return res, nil
}

func allLiveDecided(s *Sim) bool {
	any := false
	for p := 0; p < s.cfg.N(); p++ {
		if !s.Alive(model.PID(p)) {
			continue
		}
		any = true
		if !s.cfg.Output(model.PID(p)).Decided() {
			return false
		}
	}
	return any
}
