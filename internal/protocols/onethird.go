package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// OneThirdRule is the coordinator-free round-based consensus rule from the
// Heard-Of literature (Charron-Bost & Schiper): in every round each
// process broadcasts its estimate, waits for more than 2N/3 round-r
// estimates, adopts the most frequent one (ties to 0), and decides an
// estimate that appeared more than 2N/3 times.
//
// It is the third distinct architecture in the protocol suite after the
// proposer race (Paxos) and the coin rounds (Ben-Or): no leader, no coin,
// pure quorum arithmetic. Safety holds under full asynchrony; termination
// needs rounds in which enough processes hear the same > 2N/3 set — which
// the Theorem 1 adversary is free to never grant, making it another
// livelock specimen, while fair schedulers from unanimous-enough inputs
// decide in a round or two.
type OneThirdRule struct {
	// Procs is the number of processes N ≥ 3 (the rule needs two distinct
	// thirds).
	Procs int
}

// NewOneThirdRule returns a One-Third-Rule instance for n processes.
func NewOneThirdRule(n int) *OneThirdRule { return &OneThirdRule{Procs: n} }

type otrState struct {
	me    model.PID
	x     model.Value
	round int
	inbox inbox // estimates received, one slot (kind 'E') per open round
	out   model.Output
}

func (s *otrState) Key() string {
	b := make([]byte, 0, 64)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.x))
	b = enc.AppendInt(b, s.round)
	b = enc.AppendInt(b, int(s.out))
	for _, sl := range s.inbox {
		b = enc.AppendInt(b, sl.round)
		b = append(sl.got.appendKey(b), '|')
	}
	return string(b)
}

func (s *otrState) Output() model.Output { return s.out }

// Name implements model.Protocol.
func (o *OneThirdRule) Name() string { return fmt.Sprintf("onethird(n=%d)", o.Procs) }

// N implements model.Protocol.
func (o *OneThirdRule) N() int { return o.Procs }

// Init implements model.Protocol.
func (o *OneThirdRule) Init(p model.PID, input model.Value) model.State {
	return &otrState{me: p, x: input}
}

// threshold returns the "more than 2N/3" count.
func (o *OneThirdRule) threshold() int { return 2*o.Procs/3 + 1 }

const otrEstimate = 'E' // the one message kind: E|round|estimate

// Step implements model.Protocol.
func (o *OneThirdRule) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := *s.(*otrState) // inbox is shared with s and replaced, never written
	var sends []model.Message

	if st.round == 0 {
		st.round = 1
		sends = append(sends, model.Broadcast(p, o.Procs, roundBody(otrEstimate, 1, st.x))...)
	}

	if m != nil {
		if kind, r, v, ok := parseRoundBody(m.Body); ok && kind == otrEstimate && v.Valid() && r >= st.round {
			st.inbox = st.inbox.with(otrEstimate, r, m.From, v)
		}
	}

	for {
		got := st.inbox.get(otrEstimate, st.round)
		if len(got) < o.threshold() {
			break
		}
		zero, one := got.count(model.V0), got.count(model.V1)
		// Adopt the most frequent estimate, ties to 0.
		if one > zero {
			st.x = model.V1
		} else {
			st.x = model.V0
		}
		// Decide on a supermajority estimate.
		if !st.out.Decided() {
			if zero >= o.threshold() {
				st.out = model.Decided0
			} else if one >= o.threshold() {
				st.out = model.Decided1
			}
		}
		// Next round; prune stale entries.
		st.round++
		st.inbox = st.inbox.since(st.round)
		sends = append(sends, model.Broadcast(p, o.Procs, roundBody(otrEstimate, st.round, st.x))...)
	}
	return &st, sends
}
