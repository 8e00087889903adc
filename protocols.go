package flp

import (
	"github.com/flpsim/flp/internal/deadstart"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// NewTrivial0 returns the always-decide-0 protocol (violates
// nontriviality; a checker fixture).
func NewTrivial0(n int) Protocol { return protocols.NewTrivial0(n) }

// NewWaitAll returns the wait-for-all-votes majority protocol: safe and
// nontrivial, but a single crash blocks it forever.
func NewWaitAll(n int) Protocol { return protocols.NewWaitAll(n) }

// NewNaiveMajority returns the decide-on-N-1-votes protocol: it tolerates
// a crash but violates agreement — the checker exhibits the witness.
func NewNaiveMajority(n int) Protocol { return protocols.NewNaiveMajority(n) }

// NewTwoPhaseCommit returns asynchronous 2PC, the paper's motivating
// transaction-commit protocol, with process 0 coordinating.
func NewTwoPhaseCommit(n int) Protocol { return protocols.NewTwoPhaseCommit(n) }

// Coordinator is the 2PC/3PC coordinator's process id.
const Coordinator = protocols.Coordinator

// NewThreePhaseCommit returns Skeen's three-phase commit over the
// asynchronous model: dearer than 2PC and, without timeouts, exactly as
// blocked by one slow process (experiment E6).
func NewThreePhaseCommit(n int) Protocol { return protocols.NewThreePhaseCommit(n) }

// NewPaxosSynod returns a deterministic single-decree Paxos synod: safe
// under asynchrony, livelocked forever by the Theorem 1 adversary.
func NewPaxosSynod(n int) Protocol { return protocols.NewPaxosSynod(n) }

// NewBoundedPaxosSynod caps ballot numbers, yielding a finite state space.
func NewBoundedPaxosSynod(n, maxBallot int) Protocol {
	return protocols.NewBoundedPaxosSynod(n, maxBallot)
}

// NewBenOr returns Ben-Or's randomized consensus with its coins drawn from
// the deterministic tape selected by seed.
func NewBenOr(n int, seed uint64) Protocol { return protocols.NewBenOrDeterministic(n, seed) }

// NewInitiallyDead returns the Section 4 / Theorem 2 protocol: consensus
// despite any initially-dead minority.
func NewInitiallyDead(n int) Protocol { return deadstart.New(n) }

// LookupProtocol resolves a registered protocol name ("paxos", "2pc",
// "benor", "waitall", "naivemajority", "trivial0") to a factory.
func LookupProtocol(name string) (func(n int) (Protocol, error), bool) {
	return protocols.Lookup(name)
}

// ProtocolNames lists the registered protocol names.
func ProtocolNames() []string { return protocols.Names() }

var _ model.Protocol = (*deadstart.Protocol)(nil)
