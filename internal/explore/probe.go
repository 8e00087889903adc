package explore

import (
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
// value proves nothing.
func ProbeValencies(pr model.Protocol, c *model.Config, popt ProbeOptions) (wit0, wit1 model.Schedule, found0, found1 bool) {
	popt = popt.withDefaults()
	n := c.N()

	record := func(sigma model.Schedule, vals []model.Value) {
		for _, v := range vals {
			if v == model.V0 && !found0 {
				found0 = true
				wit0 = append(model.Schedule(nil), sigma...)
			}
			if v == model.V1 && !found1 {
				found1 = true
				wit1 = append(model.Schedule(nil), sigma...)
			}
		}
	}
	record(model.Schedule{}, c.DecisionValues())
	if found0 && found1 {
		return
	}

	for _, crashed := range crashSubsets(n, popt.MaxCrash) {
		var live []model.PID
		for p := 0; p < n; p++ {
			if !crashed[model.PID(p)] {
				live = append(live, model.PID(p))
			}
		}
		// Delivery disciplines: FIFO and LIFO give schedule diversity;
		// sender-priority disciplines let one process's traffic overtake
		// everyone else's, which is what steers racy protocols (Paxos)
		// toward the value that process is pushing.
		picks := []pickFunc{pickFIFO, pickLIFO}
		for _, q := range live {
			picks = append(picks, pickSenderFirst(q))
		}
		for _, pick := range picks {
			for off := 0; off < len(live); off++ {
				sigma, vals := fairRun(pr, c, rotate(live, off), popt.MaxSteps, pick)
				record(sigma, vals)
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

func pickFIFO(t *fifo.Tracker, p model.PID) (model.Message, bool) { return t.Oldest(p) }

func pickLIFO(t *fifo.Tracker, p model.PID) (model.Message, bool) {
	pending := t.PendingList(p)
	if len(pending) == 0 {
		return model.Message{}, false
	}
	return pending[len(pending)-1], true
}

// pickSenderFirst prefers the oldest pending message sent by q, falling
// back to plain FIFO.
func pickSenderFirst(q model.PID) pickFunc {
	return func(t *fifo.Tracker, p model.PID) (model.Message, bool) {
		for _, m := range t.PendingList(p) {
			if m.From == q {
				return m, true
			}
		}
		return t.Oldest(p)
	}
}

// fairRun schedules the given processes round-robin from c, delivering to
// each the pending message chosen by pick (or taking an effectful null
// step), and stops at the first decision, at quiescence, or after maxSteps
// events. It returns the schedule and the decision values present when it
// stopped.
//
// The run is executed on a mutable state slice plus a FIFO tracker rather
// than through immutable configurations: probes never compare
// configurations, so paying for buffer copies and canonical keys on every
// step — the dominant cost at hundreds of steps per run and dozens of runs
// per probe — would buy nothing.
func fairRun(pr model.Protocol, c *model.Config, order []model.PID, maxSteps int, pick pickFunc) (model.Schedule, []model.Value) {
	tracker := fifo.NewFromConfig(c)
	n := c.N()
	states := make([]model.State, n)
	for p := 0; p < n; p++ {
		states[p] = c.State(model.PID(p))
	}

	decisions := func() []model.Value {
		var vals []model.Value
		var seen0, seen1 bool
		for p := 0; p < n; p++ {
			if o := states[p].Output(); o.Decided() {
				if o == model.Decided0 && !seen0 {
					seen0 = true
					vals = append(vals, model.V0)
				}
				if o == model.Decided1 && !seen1 {
					seen1 = true
					vals = append(vals, model.V1)
				}
			}
		}
		return vals
	}

	var sigma model.Schedule
	for len(sigma) < maxSteps {
		progressed := false
		for _, p := range order {
			var e model.Event
			var msg *model.Message
			if m, ok := pick(tracker, p); ok {
				mc := m
				msg = &mc
				e = model.Deliver(m)
			} else {
				e = model.NullEvent(p)
			}
			ns, sends := pr.Step(p, states[p], msg)
			if ns == nil {
				return sigma, decisions() // contract violation: stop the run
			}
			if msg == nil && len(sends) == 0 && ns.Key() == states[p].Key() {
				continue // no-op null step: skip without recording
			}
			for i := range sends {
				sends[i].From = p
			}
			if err := tracker.Advance(e, sends); err != nil {
				return sigma, decisions()
			}
			states[p] = ns
			sigma = append(sigma, e)
			progressed = true
			if ns.Output().Decided() {
				return sigma, decisions()
			}
			if len(sigma) >= maxSteps {
				break
			}
		}
		if !progressed {
			break // quiescent: nothing left to do
		}
	}
	return sigma, decisions()
}

// crashSubsets enumerates all subsets of {0..n-1} of size ≤ maxCrash,
// smallest first (the empty set — no crashes — is probed first).
func crashSubsets(n, maxCrash int) []map[model.PID]bool {
	var subsets []map[model.PID]bool
	for size := 0; size <= maxCrash && size < n; size++ {
		combine(n, size, func(members []int) {
			s := make(map[model.PID]bool, len(members))
			for _, m := range members {
				s[model.PID(m)] = true
			}
			subsets = append(subsets, s)
		})
	}
	return subsets
}

// combine calls fn with every size-k combination of {0..n-1}.
func combine(n, k int, fn func([]int)) {
	idx := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			fn(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
}

func rotate(ps []model.PID, off int) []model.PID {
	out := make([]model.PID, len(ps))
	for i := range ps {
		out[i] = ps[(i+off)%len(ps)]
	}
	return out
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
