package model

import "fmt"

// Event is an event e = (p, m): the receipt of message m by process p.
// A nil Msg is the null delivery ∅ — receive(p) returned nothing, which is
// always applicable ("it is always possible for a process to take another
// step").
type Event struct {
	P   PID
	Msg *Message
}

// NullEvent returns the event (p, ∅).
func NullEvent(p PID) Event { return Event{P: p} }

// Deliver returns the event (m.To, m).
func Deliver(m Message) Event {
	cp := m
	return Event{P: m.To, Msg: &cp}
}

// IsNull reports whether the event is a null delivery.
func (e Event) IsNull() bool { return e.Msg == nil }

// Same reports whether two events are the same: same process and same
// message (or both null). This is the identity the Lemma 3 frontier is
// built around ("reachable from C without applying e").
func (e Event) Same(o Event) bool {
	if e.P != o.P {
		return false
	}
	if (e.Msg == nil) != (o.Msg == nil) {
		return false
	}
	if e.Msg == nil {
		return true
	}
	return *e.Msg == *o.Msg
}

func (e Event) String() string {
	if e.Msg == nil {
		return fmt.Sprintf("(p%d, ∅)", e.P)
	}
	return fmt.Sprintf("(p%d, %s from p%d)", e.P, e.Msg.Body, e.Msg.From)
}

// Applicable reports whether e can be applied to c: the process must exist
// and, for a message delivery, a copy of the message must be in the buffer.
// Null events are always applicable.
func Applicable(c *Config, e Event) bool {
	if int(e.P) < 0 || int(e.P) >= c.N() {
		return false
	}
	if e.Msg == nil {
		return true
	}
	return e.Msg.To == e.P && c.Buffer().Contains(*e.Msg)
}

// Events enumerates the applicable events of c, one per process-and-
// distinct-message pair plus the null event for every process. Duplicate
// copies of a message are interchangeable under multiset semantics, so one
// event per distinct message is exhaustive. Delivery events point at the
// buffer's own (immutable) entries.
func Events(c *Config) []Event {
	return AppendEvents(make([]Event, 0, c.N()+len(c.buf.es)), c)
}

// AppendEvents appends Events(c) to dst and returns the extended slice,
// for engines that enumerate into memory they recycle.
func AppendEvents(dst []Event, c *Config) []Event {
	for p := 0; p < c.N(); p++ {
		dst = append(dst, NullEvent(PID(p)))
		dst = c.buf.appendDeliveries(dst, PID(p))
	}
	return dst
}
