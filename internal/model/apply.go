package model

import (
	"errors"
	"fmt"
)

// ErrNotApplicable is returned by Apply when the event's message is not
// present in the configuration's buffer.
var ErrNotApplicable = errors.New("model: event not applicable to configuration")

// ProtocolError reports a violation of the model's contract by a Protocol
// implementation: a nil successor state, an invalid destination, or a write
// to an already-decided output register.
type ProtocolError struct {
	Protocol string
	P        PID
	Reason   string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("model: protocol %q, process %d: %s", e.Protocol, e.P, e.Reason)
}

// Apply performs the step e on configuration c under protocol pr and
// returns the resulting configuration e(c). It implements the two-phase
// step of Section 2: first receive(p) obtains m ∈ M ∪ {∅}, then p enters a
// new internal state and sends a finite set of messages.
//
// Apply enforces the model's invariants:
//   - the delivered message must be in the buffer (ErrNotApplicable),
//   - the successor state must be non-nil,
//   - sent messages must name valid destinations,
//   - the output register is write-once.
//
// Sent messages have their From field stamped with e.P.
func Apply(pr Protocol, c *Config, e Event) (*Config, error) {
	nc, _, err := step(pr, c, e, false)
	return nc, err
}

// ApplyTraced is Apply but additionally returns the messages sent during
// the step (with From stamped), for callers that maintain send-order
// bookkeeping on top of the untimed buffer.
func ApplyTraced(pr Protocol, c *Config, e Event) (*Config, []Message, error) {
	nc, recs, err := step(pr, c, e, false)
	if err != nil {
		return nil, nil, err
	}
	sends := make([]Message, len(recs))
	for i := range recs {
		sends[i] = recs[i].msg
	}
	return nc, sends, nil
}

// step is the one place a protocol is stepped into a new configuration. It
// returns the child and the records of the messages sent (From stamped), in
// send order. With dropNoOp set, a null event that leaves c unchanged
// (IsNoOp) yields (nil, nil, nil) instead of a copy of c, decided from the
// same Step call that would have produced the child.
//
// The successor state's Key() is called here, once: it settles the no-op
// test against the key the parent carries, and travels with the state into
// the child and every configuration that inherits it.
func step(pr Protocol, c *Config, e Event, dropNoOp bool) (*Config, []msgRec, error) {
	if int(e.P) < 0 || int(e.P) >= c.N() {
		return nil, nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "no such process"}
	}
	if e.Msg != nil && !Applicable(c, e) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotApplicable, e)
	}
	old := &c.procs[e.P]
	ns, sends := pr.Step(e.P, old.state, e.Msg)
	if ns == nil {
		return nil, nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "Step returned nil state"}
	}
	skey := ns.Key()
	if dropNoOp && e.Msg == nil && len(sends) == 0 && skey == old.skey {
		return nil, nil, nil
	}
	if o := old.state.Output(); o.Decided() && ns.Output() != o {
		return nil, nil, &ProtocolError{
			Protocol: pr.Name(), P: e.P,
			Reason: fmt.Sprintf("output register is write-once: was %s, Step changed it to %s", o, ns.Output()),
		}
	}
	recs := make([]msgRec, len(sends))
	for i, m := range sends {
		if int(m.To) < 0 || int(m.To) >= c.N() {
			return nil, nil, &ProtocolError{
				Protocol: pr.Name(), P: e.P,
				Reason: fmt.Sprintf("sent message to nonexistent process %d", m.To),
			}
		}
		m.From = e.P
		recs[i].msg = m
	}
	return c.withStep(e.P, ns, skey, e.Msg, recs), recs, nil
}

// MustApply is Apply but panics on error, for contexts (explorer internals,
// tests) where applicability was already established.
func MustApply(pr Protocol, c *Config, e Event) *Config {
	nc, err := Apply(pr, c, e)
	if err != nil {
		panic(err)
	}
	return nc
}

// Expand returns the successor e(c) as MustApply does, or nil when e is a
// null event that is a no-op on c (IsNoOp). It steps the process once, so
// exploration engines call it instead of IsNoOp followed by MustApply.
func Expand(pr Protocol, c *Config, e Event) *Config {
	nc, _, err := step(pr, c, e, true)
	if err != nil {
		panic(err)
	}
	return nc
}

// IsNoOp reports whether applying e to c leaves the system state unchanged:
// same process state and no messages sent (and nothing consumed). Null
// events that are no-ops can be skipped during exploration without losing
// any reachable configuration, which is what keeps the explored state space
// of a finite protocol finite.
func IsNoOp(pr Protocol, c *Config, e Event) bool {
	if e.Msg != nil {
		return false // consuming a message always changes the buffer
	}
	ns, sends := pr.Step(e.P, c.State(e.P), nil)
	return ns != nil && len(sends) == 0 && ns.Key() == c.procs[e.P].skey
}
