package protocols

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// PaxosSynod is a deterministic single-decree Paxos synod in which every
// process plays proposer, acceptor, and learner. It is the canonical
// real-world answer to FLP: agreement is preserved under full asynchrony
// and any minority of crashes, while termination is merely probable — the
// Theorem 1 adversary drives dueling proposers into an unbounded ballot
// chase (experiment E4), and mixed-input initial configurations are
// certifiably bivalent (the race between proposers decides the outcome).
//
// Determinism: a proposer whose ballot is rejected restarts with the
// smallest ballot it owns above the rejector's promise, so the automaton is
// a pure function of (state, delivered message), as the model requires.
//
// Ballot b is owned by process b mod N; proposer p uses ballots p, p+N,
// p+2N, ... A non-zero MaxBallot caps retries, making the protocol finite
// state (exactly explorable) at the cost of proposers eventually giving up;
// safety is unaffected.
type PaxosSynod struct {
	// Procs is the number of processes N ≥ 3 (a two-process synod cannot
	// tolerate a fault anyway).
	Procs int
	// MaxBallot, when positive, is the largest ballot number a proposer
	// will start; beyond it the proposer stops proposing (but keeps
	// serving as acceptor and learner).
	MaxBallot int
}

// Quorum returns the majority quorum size.
func (px *PaxosSynod) Quorum() int { return px.Procs/2 + 1 }

// Message bodies. Fields are '|'-separated; ballots and values are decimal.
//
//	prep|b        Prepare(b), proposer → all
//	prom|b|vb|vv  Promise(b) carrying last accepted (vb, vv); vb = -1 if none
//	nack|b|hb     Reject of Prepare/Accept at ballot b; hb = highest promise
//	acc|b|v       Accept(b, v), proposer → all
//	accd|b|v      Accepted(b, v), acceptor → all (learner traffic)
const (
	pxPrepare  = "prep"
	pxPromise  = "prom"
	pxNack     = "nack"
	pxAccept   = "acc"
	pxAccepted = "accd"
)

type promise struct {
	from model.PID
	vbal int // last accepted ballot, -1 if none
	vval model.Value
}

type paxosState struct {
	me    model.PID
	input model.Value
	out   model.Output

	// Acceptor.
	promised int // highest ballot promised, -1 initially
	accBal   int // highest ballot accepted, -1 initially
	accVal   model.Value

	// Proposer.
	curBal    int  // current ballot, -1 before the first step
	proposing bool // true in phase 1 (collecting promises) or phase 2
	inPhase2  bool
	promises  []promise // for curBal, sorted by from; replaced, never written in place
	gaveUp    bool      // MaxBallot exceeded

	// Learner: acceptors seen accepting (learnBal, learnVal).
	learnBal int
	learnVal model.Value
	learnSet pidSet
}

func (s *paxosState) Key() string {
	b := make([]byte, 0, 96)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.input))
	b = enc.AppendInt(b, int(s.out))
	b = enc.AppendInt(b, s.promised)
	b = enc.AppendInt(b, s.accBal)
	b = enc.AppendInt(b, int(s.accVal))
	b = enc.AppendInt(b, s.curBal)
	b = enc.AppendBool(b, s.proposing)
	b = enc.AppendBool(b, s.inPhase2)
	b = enc.AppendBool(b, s.gaveUp)
	for _, pr := range s.promises {
		b = enc.AppendInt(b, int(pr.from))
		b = enc.AppendInt(b, pr.vbal)
		b = enc.AppendInt(b, int(pr.vval))
	}
	b = enc.AppendInt(b, s.learnBal)
	b = enc.AppendInt(b, int(s.learnVal))
	b = append(s.learnSet.appendKey(b), '|')
	return string(b)
}

func (s *paxosState) Output() model.Output { return s.out }

// NewPaxosSynod returns an unbounded-ballot synod for n processes.
func NewPaxosSynod(n int) *PaxosSynod { return &PaxosSynod{Procs: n} }

// NewBoundedPaxosSynod returns a synod whose proposers stop above
// maxBallot, yielding a finite state space for exact exploration.
func NewBoundedPaxosSynod(n, maxBallot int) *PaxosSynod {
	return &PaxosSynod{Procs: n, MaxBallot: maxBallot}
}

// Name implements model.Protocol.
func (px *PaxosSynod) Name() string {
	if px.MaxBallot > 0 {
		return fmt.Sprintf("paxos(n=%d,maxballot=%d)", px.Procs, px.MaxBallot)
	}
	return fmt.Sprintf("paxos(n=%d)", px.Procs)
}

// N implements model.Protocol.
func (px *PaxosSynod) N() int { return px.Procs }

// Init implements model.Protocol.
func (px *PaxosSynod) Init(p model.PID, input model.Value) model.State {
	return &paxosState{
		me: p, input: input,
		promised: -1, accBal: -1, curBal: -1, learnBal: -1,
	}
}

func (px *PaxosSynod) owner(ballot int) model.PID { return model.PID(ballot % px.Procs) }

// nextBallot returns the smallest ballot owned by p strictly greater than
// above.
func (px *PaxosSynod) nextBallot(p model.PID, above int) int {
	b := int(p)
	if above >= b {
		k := (above-int(p))/px.Procs + 1
		b = k*px.Procs + int(p)
	}
	return b
}

// Step implements model.Protocol.
func (px *PaxosSynod) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := new(paxosState)
	*st = *s.(*paxosState) // promises and learnSet are shared with s and replaced, never written
	var sends []model.Message

	// First step: open ballot p (round 0).
	if st.curBal < 0 {
		st.curBal = int(p)
		if px.MaxBallot > 0 && st.curBal > px.MaxBallot {
			st.gaveUp = true
		} else {
			st.proposing = true
			sends = model.AppendBroadcast(sends, p, px.Procs, pxBody(pxPrepare, st.curBal))
		}
	}

	if m != nil {
		sends = px.handle(sends, p, st, m)
	}
	return st, sends
}

// handle applies one delivered message to st and appends what it sends to
// sends, so a step builds one sends slice. A body that is not one of the
// five forms above — unknown kind, wrong field count, a field that is not a
// decimal integer, a value that is not 0 or 1 — is consumed and ignored.
func (px *PaxosSynod) handle(sends []model.Message, p model.PID, st *paxosState, m *model.Message) []model.Message {
	kind, f, n := parsePaxos(m.Body)
	switch {
	case kind == pxPrepare && n == 1:
		b := f[0]
		if b > st.promised {
			st.promised = b
			body := pxBody(pxPromise, b, st.accBal, int(st.accVal))
			sends = append(sends, model.Message{To: px.owner(b), Body: body})
		} else {
			sends = append(sends, px.nack(b, st))
		}

	case kind == pxPromise && n == 3 && isValue(f[2]):
		b := f[0]
		if st.proposing && !st.inPhase2 && b == st.curBal {
			st.addPromise(promise{from: m.From, vbal: f[1], vval: model.Value(f[2])})
			if len(st.promises) >= px.Quorum() {
				v := st.input
				best := -1
				for _, q := range st.promises {
					if q.vbal > best {
						best = q.vbal
						v = q.vval
					}
				}
				st.inPhase2 = true
				body := pxBody(pxAccept, st.curBal, int(v))
				sends = model.AppendBroadcast(sends, p, px.Procs, body)
			}
		}

	case kind == pxNack && n == 2:
		b, hb := f[0], f[1]
		if st.proposing && b == st.curBal {
			next := px.nextBallot(p, maxInt(hb, st.curBal))
			st.promises = nil
			st.inPhase2 = false
			if px.MaxBallot > 0 && next > px.MaxBallot {
				st.proposing = false
				st.gaveUp = true
			} else {
				st.curBal = next
				sends = model.AppendBroadcast(sends, p, px.Procs, pxBody(pxPrepare, next))
			}
		}

	case kind == pxAccept && n == 2 && isValue(f[1]):
		b, v := f[0], model.Value(f[1])
		if b >= st.promised {
			st.promised = b
			st.accBal = b
			st.accVal = v
			body := pxBody(pxAccepted, b, int(v))
			sends = model.AppendBroadcast(sends, p, px.Procs, body)
		} else {
			sends = append(sends, px.nack(b, st))
		}

	case kind == pxAccepted && n == 2 && isValue(f[1]):
		b, v := f[0], model.Value(f[1])
		if b > st.learnBal {
			st.learnBal = b
			st.learnVal = v
			st.learnSet = nil
		}
		if b == st.learnBal {
			st.learnSet = st.learnSet.with(m.From)
			if len(st.learnSet) >= px.Quorum() && !st.out.Decided() {
				st.out = model.OutputOf(st.learnVal)
			}
		}
	}
	return sends
}

func (px *PaxosSynod) nack(b int, st *paxosState) model.Message {
	return model.Message{To: px.owner(b), Body: pxBody(pxNack, b, st.promised)}
}

// addPromise records pr, keeping one promise per sender in sender order, in
// a fresh slice.
func (st *paxosState) addPromise(pr promise) {
	i := 0
	for i < len(st.promises) && st.promises[i].from < pr.from {
		i++
	}
	if i < len(st.promises) && st.promises[i].from == pr.from {
		return
	}
	st.promises = insertAt(st.promises, i, pr)
}

// pxBody encodes a message body: the kind and its decimal fields. It
// formats on a stack buffer, so the body string is its one allocation.
func pxBody(kind string, fields ...int) string {
	var buf [32]byte
	b := append(buf[:0], kind...)
	for _, f := range fields {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(f), 10)
	}
	return string(b)
}

// parsePaxos splits a body into its kind and its one to three decimal
// fields; n is 0 when the body has another shape.
func parsePaxos(body string) (kind string, f [3]int, n int) {
	i := strings.IndexByte(body, '|')
	if i < 0 {
		return "", f, 0
	}
	kind, rest := body[:i], body[i+1:]
	for n < len(f) {
		field := rest
		j := strings.IndexByte(rest, '|')
		if j >= 0 {
			field = rest[:j]
		}
		v, err := strconv.Atoi(field)
		if err != nil {
			return "", f, 0
		}
		f[n] = v
		n++
		if j < 0 {
			return kind, f, n
		}
		rest = rest[j+1:]
	}
	return "", f, 0
}

func isValue(v int) bool { return v == 0 || v == 1 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
