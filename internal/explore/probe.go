package explore

import (
	"slices"
	"sync"

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

	// record keeps the first witness of each value. sigma and the messages
	// its deliveries point to are the run's reused memory, so what is kept
	// is copied out; a value c has already decided keeps its nil witness.
	record := func(sigma model.Schedule, has0, has1 bool) {
		if has0 && !found0 {
			found0 = true
			wit0 = detach(sigma)
		}
		if has1 && !found1 {
			found1 = true
			wit1 = detach(sigma)
		}
	}
	decided := c.DecisionValues()
	record(nil, slices.Contains(decided, model.V0), slices.Contains(decided, model.V1))
	if found0 && found1 {
		return
	}

	run := getProbeRun(pr, c, popt.MaxSteps)
	defer run.release()
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

// detach copies a run's schedule out of the run's memory: the events, and
// in one slice the messages its deliveries point to. An empty schedule
// detaches to nil.
func detach(sigma model.Schedule) model.Schedule {
	if len(sigma) == 0 {
		return nil
	}
	out := slices.Clone(sigma)
	delivered := 0
	for _, e := range out {
		if e.Msg != nil {
			delivered++
		}
	}
	msgs := make([]model.Message, 0, delivered)
	for i, e := range out {
		if e.Msg != nil {
			msgs = append(msgs, *e.Msg)
			out[i].Msg = &msgs[len(msgs)-1]
		}
	}
	return out
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
// nothing. A step costs one Protocol.Step and nothing else once the run's
// memory is warm: the delivered message is copied into the run's message
// slab, the tracker's queues stop growing at their longest backlog, and
// the schedule reuses its buffer. Each run resets the state to c and
// reuses the memory of the one before; each call takes that memory from
// probeRuns and puts it back cleared, so the memory outlives the call and
// nothing of the call's outlives it but the witnesses record detaches.
type probeRun struct {
	pr       model.Protocol
	c        *model.Config
	maxSteps int
	start    *fifo.Tracker  // c's buffer in canonical order, built once per call
	tracker  *fifo.Tracker  // the current run's queues
	states   []model.State  // the current run's process states
	sigma    model.Schedule // the current run's schedule; valid until the next run
	// msgs is the message slab: sigma's deliveries point into it, and so
	// does the message Protocol.Step is handed. A full slab is replaced,
	// not grown, so the pointers already handed out stay valid.
	msgs []model.Message
	// keys[p] is states[p].Key() where keyed[p]: taken from c, or from the
	// null step that produced the state, so a null step that changes
	// nothing costs one key, not two; a delivery leaves it to be built.
	keys  []string
	keyed []bool
}

// probeRuns recycles run memory across ProbeValencies calls, which the
// adversary makes by the hundred per stage.
var probeRuns = sync.Pool{New: func() any {
	return &probeRun{start: fifo.New(), tracker: fifo.New()}
}}

func getProbeRun(pr model.Protocol, c *model.Config, maxSteps int) *probeRun {
	r := probeRuns.Get().(*probeRun)
	r.pr, r.c, r.maxSteps = pr, c, maxSteps
	r.start.ResetTo(c)
	n := c.N()
	r.states = slices.Grow(r.states[:0], n)[:n]
	r.keys = slices.Grow(r.keys[:0], n)[:n]
	r.keyed = slices.Grow(r.keyed[:0], n)[:n]
	return r
}

// release clears everything the call left in r — states, keys, messages,
// queues — and returns r to probeRuns.
func (r *probeRun) release() {
	r.pr, r.c = nil, nil
	r.start.Reset()
	r.tracker.Reset()
	clear(r.states)
	clear(r.keys)
	clear(r.sigma[:cap(r.sigma)])
	clear(r.msgs[:cap(r.msgs)])
	r.sigma, r.msgs = r.sigma[:0], r.msgs[:0]
	probeRuns.Put(r)
}

// fair schedules the given processes round-robin from c, delivering to each
// the pending message chosen by pick (or taking an effectful null step),
// and stops at the first decision, at quiescence, or after maxSteps events.
// It returns the schedule and the decision values present when it stopped.
func (r *probeRun) fair(order []model.PID, pick pickFunc) (sigma model.Schedule, has0, has1 bool) {
	r.tracker.CopyFrom(r.start)
	for p := range r.states {
		r.states[p] = r.c.State(model.PID(p))
		r.keys[p], r.keyed[p] = r.c.StateKey(model.PID(p)), true
	}
	r.sigma, r.msgs = r.sigma[:0], r.msgs[:0]
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

// box copies m into the message slab and returns its slot.
func (r *probeRun) box(m model.Message) *model.Message {
	if len(r.msgs) == cap(r.msgs) {
		r.msgs = make([]model.Message, 0, max(64, 2*cap(r.msgs)))
	}
	r.msgs = append(r.msgs, m)
	return &r.msgs[len(r.msgs)-1]
}

func (r *probeRun) run(order []model.PID, pick pickFunc) {
	for len(r.sigma) < r.maxSteps {
		progressed := false
		for _, p := range order {
			e := model.NullEvent(p)
			if m, ok := pick(r.tracker, p); ok {
				e.Msg = r.box(m) // Step and the schedule share the slot
			}
			ns, sends := r.pr.Step(p, r.states[p], e.Msg)
			if ns == nil {
				return // contract violation: stop the run
			}
			nkey, nkeyed := "", false
			if e.Msg == nil && len(sends) == 0 {
				if !r.keyed[p] {
					r.keys[p], r.keyed[p] = r.states[p].Key(), true
				}
				if nkey, nkeyed = ns.Key(), true; nkey == r.keys[p] {
					continue // no-op null step: skip without recording
				}
			}
			for i := range sends {
				sends[i].From = p
			}
			if err := r.tracker.Advance(e, sends); err != nil {
				return
			}
			r.states[p], r.keys[p], r.keyed[p] = ns, nkey, nkeyed
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
