package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// ThreePhaseCommit is Skeen's three-phase commit over the asynchronous
// model: votes, then a PRECOMMIT round acknowledged by every participant,
// then COMMIT. In the timeout-equipped models it was designed for, the
// extra phase makes it non-blocking: a prepared participant can take over
// a dead coordinator. In the paper's timeout-free asynchronous model no
// participant can ever distinguish a dead coordinator from a slow one, so
// the takeover rule has nothing to trigger on — 3PC buys a longer message
// exchange and keeps the very same window of vulnerability. Experiment E6
// puts the two protocols side by side.
type ThreePhaseCommit struct {
	// Procs is the number of processes N ≥ 2. Process 0 coordinates.
	Procs int
}

const (
	bodyPrecommit = "PRECOMMIT"
	bodyAck       = "ACK"
)

// tpc3Phase tracks the coordinator's progress.
type tpc3Phase uint8

const (
	tpc3Voting    tpc3Phase = iota // collecting votes
	tpc3Preparing                  // PRECOMMIT sent, collecting acks
	tpc3Done                       // verdict broadcast
)

type tpc3State struct {
	me    model.PID
	input model.Value
	out   model.Output

	// Coordinator.
	phase tpc3Phase
	got   votes  // votes collected (including own)
	acks  pidSet // participants that acknowledged PRECOMMIT

	// Participant.
	sentVote bool
	prepared bool // PRECOMMIT received, ACK sent
}

func (s *tpc3State) Key() string {
	b := make([]byte, 0, 64)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.input))
	b = enc.AppendInt(b, int(s.out))
	b = enc.AppendInt(b, int(s.phase))
	b = append(s.got.appendKey(b), '|')
	b = append(s.acks.appendKey(b), '|')
	b = enc.AppendBool(b, s.sentVote)
	b = enc.AppendBool(b, s.prepared)
	return string(b)
}

func (s *tpc3State) Output() model.Output { return s.out }

// NewThreePhaseCommit returns a 3PC instance for n processes.
func NewThreePhaseCommit(n int) *ThreePhaseCommit { return &ThreePhaseCommit{Procs: n} }

// Name implements model.Protocol.
func (t *ThreePhaseCommit) Name() string { return fmt.Sprintf("3pc(n=%d)", t.Procs) }

// N implements model.Protocol.
func (t *ThreePhaseCommit) N() int { return t.Procs }

// Init implements model.Protocol.
func (t *ThreePhaseCommit) Init(p model.PID, input model.Value) model.State {
	s := &tpc3State{me: p, input: input}
	if p == Coordinator {
		s.got = votes{{p, input}}
	}
	return s
}

// Step implements model.Protocol.
func (t *ThreePhaseCommit) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := new(tpc3State)
	*st = *s.(*tpc3State) // got and acks are shared with s and replaced, never written
	var sends []model.Message

	if p == Coordinator {
		if m != nil {
			switch {
			case m.Body == bodyAck:
				st.acks = st.acks.with(m.From)
			default:
				if v, ok := parseVote(m.Body); ok {
					st.got = st.got.with(m.From, v)
				}
			}
		}
		switch st.phase {
		case tpc3Voting:
			if len(st.got) == t.Procs {
				if st.got.count(model.V0) > 0 {
					st.phase = tpc3Done
					st.out = model.Decided0
					sends = append(sends, model.BroadcastOthers(p, t.Procs, bodyAbort)...)
				} else {
					st.phase = tpc3Preparing
					sends = append(sends, model.BroadcastOthers(p, t.Procs, bodyPrecommit)...)
				}
			}
		case tpc3Preparing:
			if len(st.acks) == t.Procs-1 {
				st.phase = tpc3Done
				st.out = model.Decided1
				sends = append(sends, model.BroadcastOthers(p, t.Procs, bodyCommit)...)
			}
		}
		return st, sends
	}

	// Participant.
	if !st.sentVote {
		st.sentVote = true
		sends = append(sends, model.Message{To: Coordinator, Body: voteBody(st.input)})
	}
	if m != nil {
		switch m.Body {
		case bodyPrecommit:
			if !st.prepared {
				st.prepared = true
				sends = append(sends, model.Message{To: Coordinator, Body: bodyAck})
			}
		case bodyCommit:
			if !st.out.Decided() {
				st.out = model.Decided1
			}
		case bodyAbort:
			if !st.out.Decided() {
				st.out = model.Decided0
			}
		}
	}
	return st, sends
}
