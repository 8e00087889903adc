package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// TwoPhaseCommit is the transaction-commit protocol from the paper's
// introduction, in its asynchronous form. Process 0 is the coordinator;
// every process (including the coordinator) is a participant whose input is
// its vote: 1 = "commit", 0 = "abort".
//
// Phase 1: each participant sends its vote to the coordinator. Phase 2:
// once the coordinator holds all N votes, it broadcasts COMMIT if every
// vote was 1 and ABORT otherwise; every process decides on receipt.
//
// The protocol is partially correct — the coordinator's verdict is the
// unique decision value — and nontrivial. It is, exactly as the paper
// observes of all commit protocols, not fault tolerant: the decision is a
// function of the inputs alone (every initial configuration is univalent),
// and the delay of a single process — the coordinator, after votes are
// cast — leaves the system undecided forever. That interval is its "window
// of vulnerability", measured in experiment E6.
type TwoPhaseCommit struct {
	// Procs is the number of processes N ≥ 2.
	Procs int
}

// Coordinator is the coordinator's process id.
const Coordinator model.PID = 0

const (
	bodyCommit = "COMMIT"
	bodyAbort  = "ABORT"
)

type tpcState struct {
	me    model.PID
	input model.Value
	sent  bool  // participant: vote sent; coordinator: verdict broadcast
	got   votes // coordinator only: votes collected
	out   model.Output
}

func (s *tpcState) Key() string { return collectKey(s.me, s.input, s.sent, s.got, s.out) }

func (s *tpcState) Output() model.Output { return s.out }

// NewTwoPhaseCommit returns an asynchronous 2PC instance for n processes.
func NewTwoPhaseCommit(n int) *TwoPhaseCommit { return &TwoPhaseCommit{Procs: n} }

// Name implements model.Protocol.
func (t *TwoPhaseCommit) Name() string { return fmt.Sprintf("2pc(n=%d)", t.Procs) }

// N implements model.Protocol.
func (t *TwoPhaseCommit) N() int { return t.Procs }

// Init implements model.Protocol.
func (t *TwoPhaseCommit) Init(p model.PID, input model.Value) model.State {
	s := &tpcState{me: p, input: input}
	if p == Coordinator {
		s.got = votes{{p, input}}
	}
	return s
}

// Step implements model.Protocol.
func (t *TwoPhaseCommit) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*tpcState)
	ns := &tpcState{me: st.me, input: st.input, sent: st.sent, got: st.got, out: st.out}
	var sends []model.Message

	if p == Coordinator {
		if m != nil {
			if v, ok := parseVote(m.Body); ok {
				ns.got = ns.got.with(m.From, v)
			}
		}
		if !ns.sent && len(ns.got) == t.Procs {
			ns.sent = true
			verdict := model.V1
			if ns.got.count(model.V0) > 0 {
				verdict = model.V0
			}
			body := bodyCommit
			if verdict == model.V0 {
				body = bodyAbort
			}
			sends = model.AppendBroadcastOthers(sends, p, t.Procs, body)
			ns.out = model.OutputOf(verdict)
		}
		return ns, sends
	}

	// Participant.
	if !ns.sent {
		ns.sent = true
		sends = append(sends, model.Message{To: Coordinator, Body: voteBody(st.input)})
	}
	if m != nil && !ns.out.Decided() {
		switch m.Body {
		case bodyCommit:
			ns.out = model.Decided1
		case bodyAbort:
			ns.out = model.Decided0
		}
	}
	return ns, sends
}
