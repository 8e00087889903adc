package syncround

import (
	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// EarlyDecider is implemented by algorithm processes that can commit to
// their decision before the final round. The executor still runs all
// rounds (messages keep flowing); DecidedAt reports when the decision
// became fixed, for the early-stopping measurements.
type EarlyDecider interface {
	DecidedAt() (round int, ok bool)
}

// EarlyFloodSet is FloodSet with the classic early-stopping rule: a
// process that observes the same sender set in two consecutive rounds has
// witnessed a failure-free exchange — every value any live process holds
// already reached it — so its decision is fixed then, in round f'+2 at the
// latest where f' is the number of crashes that actually occur (still
// bounded by the worst-case f+1).
//
// The sender set a process observes is non-increasing over rounds (a
// process sends fully until its crash round and partially or not at all
// afterwards), so "no sender disappeared" is exactly "no failure visible".
type EarlyFloodSet struct{}

// Name implements Algorithm.
func (EarlyFloodSet) Name() string { return "floodset-early" }

// Rounds implements Algorithm: the worst case is unchanged.
func (EarlyFloodSet) Rounds(_, f int) int { return f + 1 }

// NewProcess implements Algorithm.
func (EarlyFloodSet) NewProcess(p, n int, input model.Value) Process {
	return earlyProcess{w: floodSet(1 << input)}
}

type earlyProcess struct {
	w, earlyW floodSet // W, and W at the moment the decision fixed
	senders   uint64   // the senders heard last round
	decidedAt int      // 0 = not yet fixed
}

// Send implements Process.
func (ep earlyProcess) Send(r int) (any, uint64) { return ep.w.Send(r) }

// Recv implements Process.
func (ep earlyProcess) Recv(r int, heard uint64, payloads []any) Process {
	ep.w = ep.w.Recv(r, heard, payloads).(floodSet)
	if ep.decidedAt == 0 && r > 1 && heard == ep.senders {
		ep.decidedAt = r
		ep.earlyW = ep.w
	}
	ep.senders = heard
	return ep
}

// AppendKey implements Process.
func (ep earlyProcess) AppendKey(b []byte) []byte {
	b = append(b, byte(ep.w), byte(ep.earlyW))
	return enc.AppendInt(enc.AppendInt(b, int(ep.senders)), ep.decidedAt)
}

// Decide implements Process.
func (ep earlyProcess) Decide() (model.Value, bool) { return ep.w.Decide() }

// DecidedAt implements EarlyDecider.
func (ep earlyProcess) DecidedAt() (int, bool) {
	return ep.decidedAt, ep.decidedAt > 0
}

// EarlyValue returns the decision value as fixed at DecidedAt. The
// early-stopping argument says it equals the final Decide value — a clean
// round means no live process holds anything this one lacks.
func (ep earlyProcess) EarlyValue() (model.Value, bool) {
	if ep.decidedAt == 0 {
		return 0, false
	}
	return ep.earlyW.Decide()
}
