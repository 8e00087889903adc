package protocols

import (
	"fmt"
	"math"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// BenOrDeterministic is Ben-Or's asynchronous consensus protocol ("Another
// advantage of free choice", PODC 1983 — reference [2] of the paper, cited
// in its conclusion as the randomized escape from the impossibility) in its
// crash-fault form, with the coin flips drawn from a fixed pseudo-random
// tape keyed by (Seed, process, round).
//
// Fixing the tape turns the protocol into a deterministic automaton, so it
// fits the paper's model exactly — and FLP then applies to it: for each
// seed there exist adversarial schedules that run forever. Across seeds,
// however, runs terminate with probability 1, which is experiment E9's
// subject. The protocol tolerates f = ⌊(N-1)/2⌋ crash faults.
//
// Round structure (round r ≥ 1, x the current estimate):
//
//	phase 1: broadcast (R, r, x); await wait round-r reports.
//	         If ≥ propose of them carry the same v, propose v, else ⊥.
//	phase 2: broadcast (P, r, proposal); await wait round-r proposals.
//	         ≥ decide carry the same v ≠ ⊥ → decide v;
//	         ≥ 1 carries v ≠ ⊥            → x = v;
//	         otherwise                      x = coin(Seed, p, r).
//
// Classic Ben-Or waits for wait = N-f messages, proposes on propose =
// ⌊N/2⌋+1 and decides on decide = f+1; generated protocols (package
// protogen's "benor" template) run the same automaton at other
// thresholds and with a round cap. Decided processes keep participating,
// so that others can finish, until the cap: a process that ends its last
// round halts, and from then on consumes deliveries without a trace. The
// thresholds and the cap are fixed at construction.
type BenOrDeterministic struct {
	n                     int
	seed                  uint64
	name                  string
	wait, propose, decide int
	lastRound             int // math.MaxInt when uncapped
}

// Faults returns the crash tolerance f = ⌊(N-1)/2⌋.
func (bo *BenOrDeterministic) Faults() int { return (bo.n - 1) / 2 }

const benOrBot model.Value = 2 // ⊥ in proposal messages

const benOrHalted = 3 // the phase of a process past its last round

type benOrState struct {
	me    model.PID
	x     model.Value
	round int
	phase int   // 1, 2 or benOrHalted
	inbox inbox // reports (kind 'R') and proposals (kind 'P') per open round
	out   model.Output
}

func (s *benOrState) Key() string {
	b := make([]byte, 0, 96)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.x))
	b = enc.AppendInt(b, s.round)
	b = enc.AppendInt(b, s.phase)
	b = enc.AppendInt(b, int(s.out))
	for _, sl := range s.inbox {
		b = append(b, sl.kind, '|')
		b = enc.AppendInt(b, sl.round)
		b = append(sl.got.appendKey(b), '|')
	}
	return string(b)
}

func (s *benOrState) Output() model.Output { return s.out }

// NewBenOrDeterministic returns classic Ben-Or for n processes with the
// given coin tape, uncapped.
func NewBenOrDeterministic(n int, seed uint64) *BenOrDeterministic {
	f := (n - 1) / 2
	return &BenOrDeterministic{
		n: n, seed: seed, name: fmt.Sprintf("benor(n=%d,seed=%d)", n, seed),
		wait: n - f, propose: n/2 + 1, decide: f + 1, lastRound: math.MaxInt,
	}
}

// newGeneratedBenOr realizes a validated "benor" spec: the spec's
// thresholds and round cap, named by the spec.
func newGeneratedBenOr(sp protogen.Spec) *BenOrDeterministic {
	return &BenOrDeterministic{
		n: sp.N, seed: sp.Seed, name: sp.Name(),
		wait: sp.WaitNeed, propose: sp.ProposeNeed, decide: sp.DecideNeed, lastRound: sp.MaxRound,
	}
}

// Name implements model.Protocol.
func (bo *BenOrDeterministic) Name() string { return bo.name }

// N implements model.Protocol.
func (bo *BenOrDeterministic) N() int { return bo.n }

// Init implements model.Protocol.
func (bo *BenOrDeterministic) Init(p model.PID, input model.Value) model.State {
	return &benOrState{me: p, x: input, round: 0, phase: 1}
}

// Coin returns the tape's flip for (p, r). The combination is finalized
// with a splitmix64-style mixer: a plain byte hash leaves the low bit
// correlated with the round parity, which locks anti-correlated processes
// into a perpetual coin disagreement.
func (bo *BenOrDeterministic) Coin(p model.PID, r int) model.Value {
	x := bo.seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15 ^ (uint64(r)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return model.Value(x & 1)
}

// The two message kinds: R|round|estimate and P|round|proposal.
const (
	benOrReport  = 'R'
	benOrPropose = 'P'
)

// Step implements model.Protocol.
func (bo *BenOrDeterministic) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	cur := s.(*benOrState)
	if cur.phase == benOrHalted {
		return cur, nil // past the last round: the delivery is consumed
	}
	st := *cur // inbox is shared with cur and replaced, never written
	var sends []model.Message

	// First step: enter round 1 and report.
	if st.round == 0 {
		st.round = 1
		st.phase = 1
		sends = append(sends, model.Broadcast(p, bo.n, roundBody(benOrReport, 1, st.x))...)
	}

	if m != nil {
		kind, r, v, ok := parseRoundBody(m.Body)
		ok = ok && (kind == benOrReport && v.Valid() || kind == benOrPropose && (v.Valid() || v == benOrBot))
		if ok && r >= st.round { // stale rounds are irrelevant
			st.inbox = st.inbox.with(kind, r, m.From, v)
		}
	}

	// Advance through any thresholds now met (a single delivery can
	// complete phase 1 and immediately phase 2 if the future-round traffic
	// was buffered).
	for {
		if st.phase == 1 {
			reports := st.inbox.get(benOrReport, st.round)
			if len(reports) < bo.wait {
				break
			}
			proposal := benOrBot
			if reports.count(model.V0) >= bo.propose {
				proposal = model.V0
			} else if reports.count(model.V1) >= bo.propose {
				proposal = model.V1
			}
			st.phase = 2
			sends = append(sends, model.Broadcast(p, bo.n, roundBody(benOrPropose, st.round, proposal))...)
			continue
		}
		props := st.inbox.get(benOrPropose, st.round)
		if len(props) < bo.wait {
			break
		}
		switch {
		case props.count(model.V0) >= bo.decide:
			if !st.out.Decided() {
				st.out = model.Decided0
			}
			st.x = model.V0
		case props.count(model.V1) >= bo.decide:
			if !st.out.Decided() {
				st.out = model.Decided1
			}
			st.x = model.V1
		case props.count(model.V0) >= 1:
			st.x = model.V0
		case props.count(model.V1) >= 1:
			st.x = model.V1
		default:
			st.x = bo.Coin(p, st.round)
		}
		if st.round >= bo.lastRound {
			st.phase = benOrHalted
			st.inbox = nil
			break
		}
		// Next round; prune stale inbox entries to keep states small.
		st.round++
		st.phase = 1
		st.inbox = st.inbox.since(st.round)
		sends = append(sends, model.Broadcast(p, bo.n, roundBody(benOrReport, st.round, st.x))...)
	}
	return &st, sends
}
