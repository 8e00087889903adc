package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// NaiveMajority is the obvious attempt to make WaitAll fault tolerant:
// decide the majority of the first N-1 votes collected (your own plus N-2
// others) instead of waiting for all N.
//
// It no longer blocks when one process crashes — but it is not partially
// correct: different processes can collect different (N-1)-subsets of the
// votes and decide differently. With N = 3 and inputs 011, the process
// pairing with a 1-voter decides 1 while a process pairing with the 0-voter
// decides 0. CheckPartialCorrectness produces the witness mechanically.
//
// Because both outcomes are reachable from mixed-input initial
// configurations, NaiveMajority has bivalent initial configurations and is
// the package's fully-explorable (finite-state) fixture for Lemma 2,
// Lemma 3, and the Theorem 1 adversary.
type NaiveMajority struct {
	// Procs is the number of processes N ≥ 3 (with N = 2 a process would
	// decide on its own vote alone).
	Procs int
}

type naiveState struct {
	me    model.PID
	input model.Value
	sent  bool
	got   votes
	out   model.Output
}

func (s *naiveState) Key() string { return collectKey(s.me, s.input, s.sent, s.got, s.out) }

func (s *naiveState) Output() model.Output { return s.out }

// NewNaiveMajority returns the decide-on-N-1-votes protocol for n
// processes.
func NewNaiveMajority(n int) *NaiveMajority { return &NaiveMajority{Procs: n} }

// Name implements model.Protocol.
func (nm *NaiveMajority) Name() string { return fmt.Sprintf("naivemajority(n=%d)", nm.Procs) }

// N implements model.Protocol.
func (nm *NaiveMajority) N() int { return nm.Procs }

// Init implements model.Protocol.
func (nm *NaiveMajority) Init(p model.PID, input model.Value) model.State {
	return &naiveState{me: p, input: input, got: votes{{p, input}}}
}

// Step implements model.Protocol.
func (nm *NaiveMajority) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*naiveState)
	ns := &naiveState{me: st.me, input: st.input, sent: st.sent, got: st.got, out: st.out}
	var sends []model.Message
	if !ns.sent {
		ns.sent = true
		sends = model.BroadcastOthers(p, nm.Procs, voteBody(st.input))
	}
	if m != nil && !ns.out.Decided() {
		// Votes beyond the first N-1 are ignored: the decision snapshot is
		// frozen at the moment the quorum fills.
		if v, ok := parseVote(m.Body); ok && len(ns.got) < nm.Procs-1 {
			ns.got = ns.got.with(m.From, v)
		}
	}
	if !ns.out.Decided() && len(ns.got) == nm.Procs-1 {
		ns.out = model.OutputOf(ns.got.majority())
	}
	return ns, sends
}
