package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
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
//	phase 1: broadcast (R, r, x); await N-f round-r reports.
//	         If > N/2 of them carry the same v, propose v, else propose ⊥.
//	phase 2: broadcast (P, r, proposal); await N-f round-r proposals.
//	         ≥ f+1 carry the same v ≠ ⊥ → decide v;
//	         ≥ 1 carries v ≠ ⊥        → x = v;
//	         otherwise                  x = coin(Seed, p, r).
//
// Decided processes keep participating so that others can finish.
type BenOrDeterministic struct {
	// Procs is the number of processes N ≥ 2.
	Procs int
	// Seed selects the coin tape.
	Seed uint64
}

// Faults returns the crash tolerance f = ⌊(N-1)/2⌋.
func (bo *BenOrDeterministic) Faults() int { return (bo.Procs - 1) / 2 }

const benOrBot model.Value = 2 // ⊥ in proposal messages

type benOrState struct {
	me    model.PID
	x     model.Value
	round int
	phase int   // 1 or 2
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

// NewBenOrDeterministic returns a Ben-Or instance for n processes with the
// given coin tape.
func NewBenOrDeterministic(n int, seed uint64) *BenOrDeterministic {
	return &BenOrDeterministic{Procs: n, Seed: seed}
}

// Name implements model.Protocol.
func (bo *BenOrDeterministic) Name() string {
	return fmt.Sprintf("benor(n=%d,seed=%d)", bo.Procs, bo.Seed)
}

// N implements model.Protocol.
func (bo *BenOrDeterministic) N() int { return bo.Procs }

// Init implements model.Protocol.
func (bo *BenOrDeterministic) Init(p model.PID, input model.Value) model.State {
	return &benOrState{me: p, x: input, round: 0, phase: 1}
}

// Coin returns the tape's flip for (p, r). The combination is finalized
// with a splitmix64-style mixer: a plain byte hash leaves the low bit
// correlated with the round parity, which locks anti-correlated processes
// into a perpetual coin disagreement.
func (bo *BenOrDeterministic) Coin(p model.PID, r int) model.Value {
	x := bo.Seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15 ^ (uint64(r)+1)*0xbf58476d1ce4e5b9
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
	st := *s.(*benOrState) // inbox is shared with s and replaced, never written
	var sends []model.Message

	// First step: enter round 1 and report.
	if st.round == 0 {
		st.round = 1
		st.phase = 1
		sends = append(sends, model.Broadcast(p, bo.Procs, roundBody(benOrReport, 1, st.x))...)
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
	need := bo.Procs - bo.Faults()
	for {
		if st.phase == 1 {
			reports := st.inbox.get(benOrReport, st.round)
			if len(reports) < need {
				break
			}
			proposal := benOrBot
			if reports.count(model.V0) > bo.Procs/2 {
				proposal = model.V0
			} else if reports.count(model.V1) > bo.Procs/2 {
				proposal = model.V1
			}
			st.phase = 2
			sends = append(sends, model.Broadcast(p, bo.Procs, roundBody(benOrPropose, st.round, proposal))...)
			continue
		}
		props := st.inbox.get(benOrPropose, st.round)
		if len(props) < need {
			break
		}
		f := bo.Faults()
		switch {
		case props.count(model.V0) >= f+1:
			if !st.out.Decided() {
				st.out = model.Decided0
			}
			st.x = model.V0
		case props.count(model.V1) >= f+1:
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
		// Next round; prune stale inbox entries to keep states small.
		st.round++
		st.phase = 1
		st.inbox = st.inbox.since(st.round)
		sends = append(sends, model.Broadcast(p, bo.Procs, roundBody(benOrReport, st.round, st.x))...)
	}
	return &st, sends
}
