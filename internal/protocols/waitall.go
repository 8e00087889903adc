package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// WaitAll broadcasts every input and decides the majority once votes from
// all N processes are in.
//
// It is partially correct: every process that decides sees the identical
// full vote multiset, so agreement holds, and both values are possible. But
// it is not totally correct in spite of one fault — a single crashed
// process starves everyone forever. Consistently with Lemma 2 (whose
// hypothesis it fails), every one of its initial configurations is
// univalent: the decision is a function of the inputs alone.
type WaitAll struct {
	// Procs is the number of processes N ≥ 2.
	Procs int
}

type waitAllState struct {
	me    model.PID
	input model.Value
	sent  bool
	got   votes
	out   model.Output
}

func (s *waitAllState) Key() string { return collectKey(s.me, s.input, s.sent, s.got, s.out) }

func (s *waitAllState) Output() model.Output { return s.out }

// NewWaitAll returns the wait-for-everyone protocol for n processes.
func NewWaitAll(n int) *WaitAll { return &WaitAll{Procs: n} }

// Name implements model.Protocol.
func (w *WaitAll) Name() string { return fmt.Sprintf("waitall(n=%d)", w.Procs) }

// N implements model.Protocol.
func (w *WaitAll) N() int { return w.Procs }

// Init implements model.Protocol. A process's own vote is counted from the
// start; only the broadcast is deferred to its first step.
func (w *WaitAll) Init(p model.PID, input model.Value) model.State {
	return &waitAllState{me: p, input: input, got: votes{{p, input}}}
}

// Step implements model.Protocol.
func (w *WaitAll) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*waitAllState)
	ns := &waitAllState{me: st.me, input: st.input, sent: st.sent, got: st.got, out: st.out}
	var sends []model.Message
	if !ns.sent {
		ns.sent = true
		sends = model.AppendBroadcastOthers(sends, p, w.Procs, voteBody(st.input))
	}
	if m != nil {
		if v, ok := parseVote(m.Body); ok {
			ns.got = ns.got.with(m.From, v)
		}
	}
	if !ns.out.Decided() && len(ns.got) == w.Procs {
		ns.out = model.OutputOf(ns.got.majority())
	}
	return ns, sends
}
