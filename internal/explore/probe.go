package explore

import (
	"slices"

	"github.com/flpsim/flp/internal/fifo"
	"github.com/flpsim/flp/internal/model"
)

// ProbeOptions configure the directed witness search used to certify
// bivalence cheaply on protocols whose reachable sets are too large for
// exhaustive classification (Paxos, Ben-Or).
type ProbeOptions struct {
	// MaxSteps bounds each directed run. Default 600.
	MaxSteps int
	// MaxCrash is the largest crash-subset size probed. Each probe run
	// fairly schedules the processes outside one crash subset; varying the
	// subset steers the system toward different decision values. Default 1
	// (the paper's fault bound).
	MaxCrash int
}

// DefaultProbeMaxSteps is the per-run step bound applied when
// ProbeOptions.MaxSteps is zero.
const DefaultProbeMaxSteps = 600

func (po ProbeOptions) withDefaults() ProbeOptions {
	if po.MaxSteps <= 0 {
		po.MaxSteps = DefaultProbeMaxSteps
	}
	if po.MaxCrash <= 0 {
		po.MaxCrash = 1
	}
	return po
}

// ProbeValencies searches for decision witnesses from c by running a family
// of deterministic fair runs: for every crash subset of size ≤ MaxCrash and
// every rotation offset, the live processes take steps round-robin, each
// receiving its oldest pending message (FIFO). Such runs mimic well-behaved
// executions, which decide quickly when a decision is reachable at all, so
// two of them finding different values is a fast bivalence certificate.
//
// Witnesses found are exact (they are concrete schedules); not finding a
// value proves nothing. The family and its order — crash subsets smallest
// first, then FIFO, LIFO and one sender-priority discipline per live
// process, then every rotation — decide which witness is returned, and the
// adversary's stage schedules follow from that, so they are part of the
// contract.
func ProbeValencies(pr model.Protocol, c *model.Config, popt ProbeOptions) (wit0, wit1 model.Schedule, found0, found1 bool) {
	popt = popt.withDefaults()
	n := c.N()

	// record keeps the first witness of each value; sigma is the run's
	// reused buffer, so what is kept is copied.
	record := func(sigma model.Schedule, has0, has1 bool) {
		if has0 && !found0 {
			found0 = true
			wit0 = append(model.Schedule(nil), sigma...)
		}
		if has1 && !found1 {
			found1 = true
			wit1 = append(model.Schedule(nil), sigma...)
		}
	}
	decided := c.DecisionValues()
	record(nil, slices.Contains(decided, model.V0), slices.Contains(decided, model.V1))
	if found0 && found1 {
		return
	}

	run := newProbeRun(pr, c, popt.MaxSteps)
	live := make([]model.PID, 0, n)
	order := make([]model.PID, 0, n)
	for _, crashed := range crashSubsets(n, popt.MaxCrash) {
		live = live[:0]
		for p := 0; p < n; p++ {
			if !slices.Contains(crashed, model.PID(p)) {
				live = append(live, model.PID(p))
			}
		}
		// Delivery disciplines: FIFO and LIFO give schedule diversity;
		// sender-priority disciplines let one process's traffic overtake
		// everyone else's, which is what steers racy protocols (Paxos)
		// toward the value that process is pushing.
		picks := []pickFunc{(*fifo.Tracker).Oldest, (*fifo.Tracker).Newest}
		for _, q := range live {
			picks = append(picks, pickSenderFirst(q))
		}
		for _, pick := range picks {
			for off := range live {
				order = append(append(order[:0], live[off:]...), live[:off]...)
				record(run.fair(order, pick))
				if found0 && found1 {
					return
				}
			}
		}
	}
	return
}

// pickFunc selects which pending message to deliver to p next.
type pickFunc func(t *fifo.Tracker, p model.PID) (model.Message, bool)

// pickSenderFirst prefers the oldest pending message sent by q, falling
// back to plain FIFO.
func pickSenderFirst(q model.PID) pickFunc {
	return func(t *fifo.Tracker, p model.PID) (model.Message, bool) {
		if m, ok := t.OldestFrom(p, q); ok {
			return m, true
		}
		return t.Oldest(p)
	}
}

// probeRun is the mutable state every run of one ProbeValencies call
// executes on: a state slice plus a send-order tracker rather than
// immutable configurations. Probes never compare configurations, so paying
// for buffer copies and canonical keys on every step — the dominant cost at
// hundreds of steps per run and dozens of runs per probe — would buy
// nothing; a step costs one Protocol.Step, one boxed message and an
// in-place queue edit. Each run resets the state to c and reuses the
// storage of the one before.
type probeRun struct {
	pr       model.Protocol
	c        *model.Config
	maxSteps int
	start    *fifo.Tracker  // c's buffer in canonical order, built once
	tracker  *fifo.Tracker  // the current run's queues
	states   []model.State  // the current run's process states
	sigma    model.Schedule // the current run's schedule; valid until the next run
}

func newProbeRun(pr model.Protocol, c *model.Config, maxSteps int) *probeRun {
	return &probeRun{
		pr: pr, c: c, maxSteps: maxSteps,
		start:   fifo.NewFromConfig(c),
		tracker: fifo.New(),
		states:  make([]model.State, c.N()),
	}
}

// fair schedules the given processes round-robin from c, delivering to each
// the pending message chosen by pick (or taking an effectful null step),
// and stops at the first decision, at quiescence, or after maxSteps events.
// It returns the schedule and the decision values present when it stopped.
func (r *probeRun) fair(order []model.PID, pick pickFunc) (sigma model.Schedule, has0, has1 bool) {
	r.tracker.CopyFrom(r.start)
	for p := range r.states {
		r.states[p] = r.c.State(model.PID(p))
	}
	r.sigma = r.sigma[:0]
	r.run(order, pick)
	for _, s := range r.states {
		switch s.Output() {
		case model.Decided0:
			has0 = true
		case model.Decided1:
			has1 = true
		}
	}
	return r.sigma, has0, has1
}

func (r *probeRun) run(order []model.PID, pick pickFunc) {
	for len(r.sigma) < r.maxSteps {
		progressed := false
		for _, p := range order {
			e := model.NullEvent(p)
			if m, ok := pick(r.tracker, p); ok {
				e = model.Deliver(m) // the one box per delivery: Step and the schedule share it
			}
			ns, sends := r.pr.Step(p, r.states[p], e.Msg)
			if ns == nil {
				return // contract violation: stop the run
			}
			if e.Msg == nil && len(sends) == 0 && ns.Key() == r.states[p].Key() {
				continue // no-op null step: skip without recording
			}
			for i := range sends {
				sends[i].From = p
			}
			if err := r.tracker.Advance(e, sends); err != nil {
				return
			}
			r.states[p] = ns
			r.sigma = append(r.sigma, e)
			progressed = true
			if ns.Output().Decided() || len(r.sigma) >= r.maxSteps {
				return
			}
		}
		if !progressed {
			return // quiescent: nothing left to do
		}
	}
}

// crashSubsets enumerates all subsets of {0..n-1} of size ≤ maxCrash,
// smallest first (the empty set — no crashes — is probed first), each size
// in lexicographic order: every subset is extended by each larger member.
func crashSubsets(n, maxCrash int) [][]model.PID {
	subsets := [][]model.PID{nil}
	for i := 0; i < len(subsets); i++ {
		s := subsets[i]
		if len(s) == maxCrash || len(s) == n-1 {
			break // sizes only grow from here
		}
		next := model.PID(0)
		if len(s) > 0 {
			next = s[len(s)-1] + 1
		}
		for p := next; int(p) < n; p++ {
			subsets = append(subsets, append(slices.Clone(s), p))
		}
	}
	return subsets
}

// ClassifySmart classifies c by first probing for cheap bivalence
// certificates and falling back to budgeted breadth-first classification.
// Bivalence results are always exact; univalence and stuckness are exact
// only when the fallback exploration exhausted the reachable set.
func ClassifySmart(pr model.Protocol, c *model.Config, opt Options, popt ProbeOptions) ValencyInfo {
	wit0, wit1, f0, f1 := ProbeValencies(pr, c, popt)
	if f0 && f1 {
		return ValencyInfo{
			Valency: Bivalent, Exact: true,
			Witness0: wit0, Witness1: wit1,
			hasZero: true, hasOne: true,
		}
	}
	info := Classify(pr, c, opt)
	// Merge probe findings: the probe may have reached a value the budget
	// kept the breadth-first search from.
	if f0 && !info.hasZero {
		info.hasZero = true
		info.Witness0 = wit0
	}
	if f1 && !info.hasOne {
		info.hasOne = true
		info.Witness1 = wit1
	}
	if info.hasZero && info.hasOne {
		info.Valency = Bivalent
		info.Exact = true
	}
	return info
}
