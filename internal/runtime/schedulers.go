package runtime

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// RandomFair schedules a uniformly random live process each step and
// delivers a uniformly random pending message to it (or, with probability
// NullProb, or when nothing is pending, takes a null step if effectful).
// Over infinite runs it is fair with probability 1: every process is
// scheduled infinitely often and every message is eventually delivered.
type RandomFair struct {
	// NullProb is the chance of a null step when messages are pending.
	// Zero is a sensible default.
	NullProb float64
}

// Name implements Scheduler.
func (RandomFair) Name() string { return "random-fair" }

// Next implements Scheduler.
func (rf RandomFair) Next(s *Sim) (model.Event, bool) {
	live := s.LiveProcesses()
	// Collect processes with something effectful to do and pick uniformly.
	var candidates []model.Event
	for _, p := range live {
		pending := s.Tracker().PendingTo(p)
		wantNull := rf.NullProb > 0 && s.Rand().Float64() < rf.NullProb
		if null := model.NullEvent(p); wantNull && s.Effectful(null) {
			candidates = append(candidates, null)
			continue
		}
		if pending > 0 {
			m := s.Tracker().At(p, s.Rand().Intn(pending))
			candidates = append(candidates, model.Deliver(m))
			continue
		}
		if null := model.NullEvent(p); s.Effectful(null) {
			candidates = append(candidates, null)
		}
	}
	if len(candidates) == 0 {
		return model.Event{}, false
	}
	return candidates[s.Rand().Intn(len(candidates))], true
}

// RoundRobin services live processes in rotation, delivering each its
// oldest pending message (FIFO) or an effectful null step. It is the
// deterministic fair baseline.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (rr *RoundRobin) Next(s *Sim) (model.Event, bool) {
	n := s.Config().N()
	for i := 0; i < n; i++ {
		p := model.PID((rr.next + i) % n)
		if !s.Alive(p) {
			continue
		}
		var e model.Event
		if m, ok := s.Tracker().Oldest(p); ok {
			e = model.Deliver(m)
		} else {
			e = model.NullEvent(p)
			if !s.Effectful(e) {
				continue
			}
		}
		rr.next = (int(p) + 1) % n
		return e, true
	}
	return model.Event{}, false
}

// Delayed wraps another scheduler and never schedules Victim — the paper's
// indistinguishable "died or just running very slowly" process. Unlike a
// crash, the victim's pending messages stay in the buffer and its own sent
// messages still circulate.
type Delayed struct {
	Victim model.PID
	Inner  Scheduler
}

// Name implements Scheduler.
func (d Delayed) Name() string { return fmt.Sprintf("delay(p%d)+%s", d.Victim, d.Inner.Name()) }

// Next implements Scheduler.
func (d Delayed) Next(s *Sim) (model.Event, bool) {
	// Retry a bounded number of times when the inner scheduler keeps
	// offering the victim; deterministic inner schedulers (round-robin)
	// skip it on their own after one redirect.
	for i := 0; i < 4*s.Config().N(); i++ {
		e, ok := d.Inner.Next(s)
		if !ok {
			return model.Event{}, false
		}
		if e.P != d.Victim {
			return e, true
		}
	}
	return model.Event{}, false
}
