// Package fifo tracks send-order information on top of the model's untimed
// message buffer. The paper's Theorem 1 construction orders the buffer "by
// the time the messages were sent, earliest first" to argue admissibility;
// the adversary and the fair schedulers of the runtime both need that
// ordering, while valency analysis must not see it (timing would fragment
// configuration equality). A Tracker mirrors a configuration's buffer with
// sequence numbers, and is advanced alongside it.
//
// Queues are mutated in place: a delivery shifts the destination's queue
// down instead of rebuilding it, so a queue stops growing once it has held
// its longest backlog. Nothing a Tracker hands out aliases a queue — the
// readers return message values, PendingList and Clone copy — so a
// delivery never shows through a value obtained earlier.
package fifo

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// entry is one in-flight message instance with its send sequence number.
type entry struct {
	msg model.Message
	seq uint64
}

// Tracker maintains, per destination process, the pending messages in send
// order.
type Tracker struct {
	queues  [][]entry // indexed by destination PID, grown by Send
	nextSeq uint64
}

// New returns an empty tracker for a system whose buffer is empty (an
// initial configuration).
func New() *Tracker { return &Tracker{} }

// NewFromConfig returns a tracker primed with the configuration's current
// buffer contents. Their true send order is unknown, so they are enqueued
// in the buffer's canonical order, Count(m) instances per distinct message;
// this only matters when attaching a tracker mid-run.
func NewFromConfig(c *model.Config) *Tracker {
	t := New()
	t.ResetTo(c)
	return t
}

// ResetTo makes t what NewFromConfig(c) returns, reusing the queue storage
// t already owns.
func (t *Tracker) ResetTo(c *model.Config) {
	t.Reset()
	for _, m := range c.Buffer().Messages() {
		for i := 0; i < c.Buffer().Count(m); i++ {
			t.Send(m)
		}
	}
}

// Reset empties t, as New returns it, keeping its queue storage; the
// storage retains no message body.
func (t *Tracker) Reset() {
	for p, q := range t.queues {
		clear(q)
		t.queues[p] = q[:0]
	}
	t.nextSeq = 0
}

// queue returns p's pending entries, oldest first; empty for a process no
// message was ever sent to.
func (t *Tracker) queue(p model.PID) []entry {
	if p < 0 || int(p) >= len(t.queues) {
		return nil
	}
	return t.queues[p]
}

// Send records a newly sent message at the back of its destination's queue.
// m.To must be a process identifier (non-negative).
func (t *Tracker) Send(m model.Message) {
	for int(m.To) >= len(t.queues) {
		t.queues = append(t.queues, nil)
	}
	t.queues[m.To] = append(t.queues[m.To], entry{msg: m, seq: t.nextSeq})
	t.nextSeq++
}

// Oldest returns the earliest-sent pending message for p.
func (t *Tracker) Oldest(p model.PID) (model.Message, bool) {
	q := t.queue(p)
	if len(q) == 0 {
		return model.Message{}, false
	}
	return q[0].msg, true
}

// OldestSeq returns the sequence number of the earliest-sent pending
// message for p, for lag measurements.
func (t *Tracker) OldestSeq(p model.PID) (uint64, bool) {
	q := t.queue(p)
	if len(q) == 0 {
		return 0, false
	}
	return q[0].seq, true
}

// Newest returns the latest-sent pending message for p.
func (t *Tracker) Newest(p model.PID) (model.Message, bool) {
	q := t.queue(p)
	if len(q) == 0 {
		return model.Message{}, false
	}
	return q[len(q)-1].msg, true
}

// OldestFrom returns the earliest-sent pending message for p whose sender
// is from.
func (t *Tracker) OldestFrom(p, from model.PID) (model.Message, bool) {
	for _, e := range t.queue(p) {
		if e.msg.From == from {
			return e.msg, true
		}
	}
	return model.Message{}, false
}

// At returns the i-th pending message for p in send order; i must be in
// [0, PendingTo(p)).
func (t *Tracker) At(p model.PID, i int) model.Message { return t.queue(p)[i].msg }

// PendingTo returns the number of messages pending for p.
func (t *Tracker) PendingTo(p model.PID) int { return len(t.queue(p)) }

// Pending returns the total number of pending messages.
func (t *Tracker) Pending() int {
	n := 0
	for _, q := range t.queues {
		n += len(q)
	}
	return n
}

// PendingList returns a copy of the pending messages for p in send order;
// later deliveries do not change it. Callers that read one message use
// Oldest, Newest, OldestFrom or At instead.
func (t *Tracker) PendingList(p model.PID) []model.Message {
	q := t.queue(p)
	out := make([]model.Message, len(q))
	for i, e := range q {
		out[i] = e.msg
	}
	return out
}

// Deliver removes the oldest pending instance equal to m from m.To's
// queue. The oldest instance is the right one to account against: under
// multiset semantics equal copies are interchangeable, and charging the
// oldest keeps the "earliest first" admissibility discipline honest.
//
// The queue is edited in place: the tail behind the delivered entry shifts
// down one slot, the head included, so the queue keeps its backing array
// and a later Send fills the freed slot instead of regrowing it. The
// vacated slot is zeroed so the queue's spare capacity retains no message
// body.
func (t *Tracker) Deliver(m model.Message) error {
	q := t.queue(m.To)
	for i := range q {
		if q[i].msg != m {
			continue
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = entry{}
		t.queues[m.To] = q[:len(q)-1]
		return nil
	}
	return fmt.Errorf("fifo: no pending instance of %s", m)
}

// Advance applies an event's effects: the delivered message (if any) is
// removed and the step's sends are enqueued. Use with model.ApplyTraced.
func (t *Tracker) Advance(e model.Event, sends []model.Message) error {
	if e.Msg != nil {
		if err := t.Deliver(*e.Msg); err != nil {
			return err
		}
	}
	for _, m := range sends {
		t.Send(m)
	}
	return nil
}

// Clone returns a deep copy.
func (t *Tracker) Clone() *Tracker {
	c := New()
	c.CopyFrom(t)
	return c
}

// CopyFrom makes t a deep copy of src, reusing the queue storage t already
// owns. It is how a caller replays many runs from one starting point
// without building a tracker per run.
func (t *Tracker) CopyFrom(src *Tracker) {
	for len(t.queues) < len(src.queues) {
		t.queues = append(t.queues, nil)
	}
	for p, q := range t.queues {
		clear(q) // as Deliver: spare capacity retains no message body
		t.queues[p] = append(q[:0], src.queue(model.PID(p))...)
	}
	t.nextSeq = src.nextSeq
}
