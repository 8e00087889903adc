package protogen

import (
	"strconv"
	"strings"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// tableProto realizes a "table" Spec: every process runs the same finite
// transition table over (phase, register, received symbol), with phases
// capped at Spec.Phases. A process at the terminal phase is halted: it
// consumes deliveries silently and its null steps are no-ops, which the
// engines skip.
type tableProto struct {
	sp   Spec
	name string
}

type tableState struct {
	me    model.PID
	input model.Value
	phase int
	reg   int
	out   model.Output
}

func (s *tableState) Key() string {
	b := make([]byte, 0, 32)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.input))
	b = enc.AppendInt(b, s.phase)
	b = enc.AppendInt(b, s.reg)
	b = enc.AppendInt(b, int(s.out))
	return string(b)
}

func (s *tableState) Output() model.Output { return s.out }

// Name implements model.Protocol; the name encodes the entire spec (see
// Spec.Name), which is what lets remote workers reconstruct the protocol.
func (g *tableProto) Name() string { return g.name }

// N implements model.Protocol.
func (g *tableProto) N() int { return g.sp.N }

// Init implements model.Protocol.
func (g *tableProto) Init(p model.PID, input model.Value) model.State {
	return &tableState{me: p, input: input}
}

// symBody renders alphabet symbol k as a message body.
func symBody(k int) string { return "g" + strconv.Itoa(k) }

// symIndex maps a message body to its table symbol index: 0 for the null
// delivery, k+1 for alphabet symbol k. Foreign bodies (impossible in pure
// generated runs) fold to the null column rather than crash.
func (g *tableProto) symIndex(m *model.Message) int {
	if m == nil {
		return 0
	}
	rest, ok := strings.CutPrefix(m.Body, "g")
	if !ok {
		return 0
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 || k >= g.sp.Alphabet {
		return 0
	}
	return k + 1
}

// Step implements model.Protocol: one table lookup, applied to an
// immutable copy of the state.
func (g *tableProto) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*tableState)
	if st.phase >= g.sp.Phases {
		return st, nil // halted; a delivery is consumed silently
	}
	tr := g.sp.Table[g.sp.tableIndex(st.phase, st.reg, g.symIndex(m))]
	ns := *st
	ns.phase = tr.Next
	ns.reg = tr.Reg
	if !ns.out.Decided() {
		switch tr.Decide {
		case DecideZero:
			ns.out = model.Decided0
		case DecideOne:
			ns.out = model.Decided1
		case DecideInput:
			ns.out = model.OutputOf(st.input)
		case DecideReg:
			ns.out = model.OutputOf(model.Value(tr.Reg & 1))
		}
	}
	var sends []model.Message
	for _, sd := range tr.Sends {
		body := symBody(sd.Sym)
		switch sd.Target {
		case TargetAll:
			sends = model.AppendBroadcast(sends, p, g.sp.N, body)
		case TargetOthers:
			sends = model.AppendBroadcastOthers(sends, p, g.sp.N, body)
		case TargetSelf:
			sends = append(sends, model.Message{To: p, From: p, Body: body})
		case TargetNext:
			sends = append(sends, model.Message{To: model.PID((int(p) + 1) % g.sp.N), From: p, Body: body})
		default:
			sends = append(sends, model.Message{To: model.PID(sd.Target), From: p, Body: body})
		}
	}
	return &ns, sends
}
