package protogen

import (
	"strconv"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// benorProto realizes a "benor" Spec: the report/propose round structure
// of Ben-Or's randomized consensus, with three generator-chosen thresholds
// and the shared coin drawn from a deterministic tape keyed by
// (Seed, process, round) — so every run replays exactly and FLP's model
// applies unchanged. Rounds are capped at MaxRound: a process that would
// enter round MaxRound+1 halts instead, which bounds message production
// and keeps the reachable configuration graph finite (the registry's
// uncapped Ben-Or has an unbounded state space, which the conformance
// harness cannot demand complete explorations of).
//
// Round structure (round r ≥ 1, x the current estimate):
//
//	phase 1: broadcast (R, r, x); await WaitNeed round-r reports.
//	         If ≥ ProposeNeed carry the same v, propose v, else ⊥.
//	phase 2: broadcast (P, r, proposal); await WaitNeed round-r proposals.
//	         ≥ DecideNeed carry the same v ≠ ⊥ → decide v;
//	         ≥ 1 carries v ≠ ⊥               → x = v;
//	         otherwise                         x = coin(Seed, p, r).
type benorProto struct {
	sp   Spec
	name string
}

const benorHalted = 3 // phase value marking a capped-out process

const benorBot model.Value = 2 // ⊥ in proposal messages

// vote is one sender's report or proposal.
type vote struct {
	pid model.PID
	val model.Value
}

// voteSet is the votes received in one (kind, round) slot, at most one per
// sender, in sender order. Immutable: with returns a copy, so states share
// it freely.
type voteSet []vote

func (v voteSet) with(p model.PID, val model.Value) voteSet {
	i := 0
	for i < len(v) && v[i].pid < p {
		i++
	}
	if i < len(v) && v[i].pid == p {
		nv := append(voteSet(nil), v...)
		nv[i].val = val
		return nv
	}
	return insertAt(v, i, vote{p, val})
}

// insertAt returns a copy of s with x inserted at index i, in one
// allocation; s is not written.
func insertAt[S ~[]E, E any](s S, i int, x E) S {
	ns := make(S, len(s)+1)
	copy(ns, s[:i])
	ns[i] = x
	copy(ns[i+1:], s[i:])
	return ns
}

func (v voteSet) count(val model.Value) int {
	c := 0
	for _, x := range v {
		if x.val == val {
			c++
		}
	}
	return c
}

// slot is the votes received of one kind ('R' or 'P') for one round.
type slot struct {
	kind  byte
	round int
	got   voteSet
}

// before reports whether s's key "kind|round" sorts before (kind, round)'s.
// Rounds the protocol sends are at most MaxRound ≤ 8, one digit, so the
// numeric order is the order of the keys as strings.
func (s *slot) before(kind byte, round int) bool {
	return s.kind < kind || (s.kind == kind && s.round < round)
}

type benorState struct {
	me    model.PID
	x     model.Value
	round int // 0 = not started; 1..MaxRound active
	phase int // 1, 2, or benorHalted
	out   model.Output
	// inbox holds the open slots in key order. Immutable like voteSet: a
	// step that changes it builds a new list.
	inbox []slot
}

func (s *benorState) Key() string {
	b := make([]byte, 0, 96)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.x))
	b = enc.AppendInt(b, s.round)
	b = enc.AppendInt(b, s.phase)
	b = enc.AppendInt(b, int(s.out))
	for _, sl := range s.inbox {
		b = append(b, sl.kind, '|')
		b = enc.AppendInt(b, sl.round)
		for _, x := range sl.got {
			b = enc.AppendInt(b, int(x.pid))
			b = enc.AppendInt(b, int(x.val))
		}
		b = append(b, '|')
	}
	return string(b)
}

func (s *benorState) Output() model.Output { return s.out }

// votes returns the votes of slot (kind, round); nil when there are none.
func (s *benorState) votes(kind byte, round int) voteSet {
	for i := range s.inbox {
		if s.inbox[i].kind == kind && s.inbox[i].round == round {
			return s.inbox[i].got
		}
	}
	return nil
}

// record stores p's vote in slot (kind, round), in a new slot list.
func (s *benorState) record(kind byte, round int, p model.PID, val model.Value) {
	in := s.inbox
	i := 0
	for i < len(in) && in[i].before(kind, round) {
		i++
	}
	if i < len(in) && in[i].kind == kind && in[i].round == round {
		s.inbox = append([]slot(nil), in...)
		s.inbox[i].got = in[i].got.with(p, val)
		return
	}
	s.inbox = insertAt(in, i, slot{kind, round, voteSet{{p, val}}})
}

// prune drops the slots of rounds before round, in a new slot list.
func (s *benorState) prune(round int) {
	var kept []slot
	for _, sl := range s.inbox {
		if sl.round >= round {
			kept = append(kept, sl)
		}
	}
	s.inbox = kept
}

// Name implements model.Protocol.
func (g *benorProto) Name() string { return g.name }

// N implements model.Protocol.
func (g *benorProto) N() int { return g.sp.N }

// Init implements model.Protocol.
func (g *benorProto) Init(p model.PID, input model.Value) model.State {
	return &benorState{me: p, x: input, round: 0, phase: 1}
}

// coin is the deterministic tape: the flip for (p, r) under this spec's
// seed, finalized with a stateless mixer so no bit correlates with round
// parity.
func (g *benorProto) coin(p model.PID, r int) model.Value {
	return model.Value(mix64(g.sp.Seed^(uint64(p)+1)*0x9e3779b97f4a7c15^(uint64(r)+1)*0xbf58476d1ce4e5b9) & 1)
}

// benorBody encodes "K|r|v": kind letter, decimal round, one-digit value.
func benorBody(kind byte, r int, v model.Value) string {
	b := make([]byte, 0, 24)
	b = append(b, kind, '|')
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, '|', '0'+byte(v))
	return string(b)
}

// parseBenorBody accepts exactly what benorBody writes for rounds below
// 10⁹: kind R or P, a round of plain digits with no leading zero, a value
// of 0 or 1 (or ⊥ in a proposal), and nothing after it.
func parseBenorBody(body string) (kind byte, r int, v model.Value, ok bool) {
	n := len(body)
	if n < 5 || n > 13 || body[1] != '|' || body[n-2] != '|' || (body[0] != 'R' && body[0] != 'P') {
		return 0, 0, 0, false
	}
	digits := body[2 : n-2]
	if digits[0] == '0' && len(digits) > 1 {
		return 0, 0, 0, false
	}
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, 0, 0, false
		}
		r = r*10 + int(d)
	}
	v = model.Value(body[n-1] - '0')
	if !v.Valid() && !(v == benorBot && body[0] == 'P') {
		return 0, 0, 0, false
	}
	return body[0], r, v, true
}

// Step implements model.Protocol. The structure follows the registry's
// BenOrDeterministic with the thresholds generalized and the round cap
// added; decided processes keep participating until the cap so others can
// finish.
func (g *benorProto) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*benorState)
	if st.phase == benorHalted {
		return st, nil // capped out; deliveries are consumed silently
	}
	next := new(benorState)
	*next = *st // inbox is shared with st and replaced, never written
	var sends []model.Message

	// First step: enter round 1 and report.
	if next.round == 0 {
		next.round = 1
		next.phase = 1
		sends = append(sends, model.Broadcast(p, g.sp.N, benorBody('R', 1, next.x))...)
	}

	if m != nil {
		if kind, r, v, ok := parseBenorBody(m.Body); ok && r >= next.round {
			next.record(kind, r, m.From, v)
		}
	}

	// Advance through any thresholds now met (buffered future-round traffic
	// can complete several phases in one delivery).
	for {
		if next.phase == 1 {
			reports := next.votes('R', next.round)
			if len(reports) < g.sp.WaitNeed {
				break
			}
			proposal := benorBot
			if reports.count(model.V0) >= g.sp.ProposeNeed {
				proposal = model.V0
			} else if reports.count(model.V1) >= g.sp.ProposeNeed {
				proposal = model.V1
			}
			next.phase = 2
			sends = append(sends, model.Broadcast(p, g.sp.N, benorBody('P', next.round, proposal))...)
			continue
		}
		props := next.votes('P', next.round)
		if len(props) < g.sp.WaitNeed {
			break
		}
		switch {
		case props.count(model.V0) >= g.sp.DecideNeed:
			if !next.out.Decided() {
				next.out = model.Decided0
			}
			next.x = model.V0
		case props.count(model.V1) >= g.sp.DecideNeed:
			if !next.out.Decided() {
				next.out = model.Decided1
			}
			next.x = model.V1
		case props.count(model.V0) >= 1:
			next.x = model.V0
		case props.count(model.V1) >= 1:
			next.x = model.V1
		default:
			next.x = g.coin(p, next.round)
		}
		if next.round >= g.sp.MaxRound {
			next.phase = benorHalted
			next.inbox = nil
			break
		}
		// Next round; prune stale inbox slots to keep states small.
		next.round++
		next.phase = 1
		next.prune(next.round)
		sends = append(sends, model.Broadcast(p, g.sp.N, benorBody('R', next.round, next.x))...)
	}
	return next, sends
}
