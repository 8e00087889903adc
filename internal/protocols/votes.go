package protocols

import (
	"strconv"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// vote is one process's vote.
type vote struct {
	pid model.PID
	val model.Value
}

// votes is an immutable set of votes, at most one per process, sorted by
// process id. The shared currency of the broadcast-and-collect protocols
// below; len is the number of processes heard from. States share a votes
// value freely: with never writes to its receiver.
type votes []vote

// with returns v with p's vote set to val, in one allocation (none when v
// already says so).
func (v votes) with(p model.PID, val model.Value) votes {
	i := 0
	for i < len(v) && v[i].pid < p {
		i++
	}
	if i < len(v) && v[i].pid == p {
		if v[i].val == val {
			return v
		}
		nv := append(votes(nil), v...)
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

// appendKey appends the canonical encoding: "pid:val" pairs in process
// order, comma-separated.
func (v votes) appendKey(b []byte) []byte {
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x.pid), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(x.val), 10)
	}
	return b
}

// collectKey is the state key shared by the collect-then-decide protocols
// (WaitAll, NaiveMajority, TwoPhaseCommit): me, input, sent, votes, output.
func collectKey(me model.PID, input model.Value, sent bool, got votes, out model.Output) string {
	b := make([]byte, 0, 64)
	b = enc.AppendInt(b, int(me))
	b = enc.AppendInt(b, int(input))
	b = enc.AppendBool(b, sent)
	b = append(got.appendKey(b), '|')
	b = enc.AppendInt(b, int(out))
	return string(b)
}

// count returns how many collected votes equal val.
func (v votes) count(val model.Value) int {
	n := 0
	for _, x := range v {
		if x.val == val {
			n++
		}
	}
	return n
}

// majority returns the majority value of the collected votes, ties going
// to 0. It is the "agreed-upon rule" decision function used throughout.
func (v votes) majority() model.Value {
	if v.count(model.V1) > v.count(model.V0) {
		return model.V1
	}
	return model.V0
}

// voteBody encodes a vote message body; parseVote decodes it.
func voteBody(v model.Value) string { return "V" + strconv.Itoa(int(v)) }

func parseVote(body string) (model.Value, bool) {
	if len(body) != 2 || body[0] != 'V' {
		return 0, false
	}
	switch body[1] {
	case '0':
		return model.V0, true
	case '1':
		return model.V1, true
	}
	return 0, false
}

// pidSet is an immutable set of process ids in increasing order; like
// votes it is shared between states and never written in place.
type pidSet []model.PID

// with returns s with p added, in one allocation (none when p is in s).
func (s pidSet) with(p model.PID) pidSet {
	i := 0
	for i < len(s) && s[i] < p {
		i++
	}
	if i < len(s) && s[i] == p {
		return s
	}
	return insertAt(s, i, p)
}

// appendKey appends the members in increasing order, comma-separated,
// without a field separator.
func (s pidSet) appendKey(b []byte) []byte {
	for i, p := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return b
}

// slot is the votes a round protocol has received of one kind of message
// for one round. kind is the message's kind letter.
type slot struct {
	kind  byte
	round int
	got   votes
}

// inbox is the immutable list of a round protocol's open slots, in the
// order of their keys "kind|round" as strings — kind first, then the
// round's decimal digits, so round 10 comes before round 9. Like votes it
// is shared between states and never written in place.
type inbox []slot

// get returns the votes of slot (kind, round); nil when there are none.
func (in inbox) get(kind byte, round int) votes {
	for i := range in {
		if in[i].kind == kind && in[i].round == round {
			return in[i].got
		}
	}
	return nil
}

// with returns in with p's vote recorded in slot (kind, round): one copy of
// the slot list and one of that slot's votes.
func (in inbox) with(kind byte, round int, p model.PID, val model.Value) inbox {
	i := 0
	for i < len(in) && in[i].before(kind, round) {
		i++
	}
	if i < len(in) && in[i].kind == kind && in[i].round == round {
		nin := append(inbox(nil), in...)
		nin[i].got = nin[i].got.with(p, val)
		return nin
	}
	return insertAt(in, i, slot{kind, round, votes{{p, val}}})
}

// before reports whether s sorts before slot (kind, round).
func (s *slot) before(kind byte, round int) bool {
	if s.kind != kind {
		return s.kind < kind
	}
	var a, b [20]byte
	return string(strconv.AppendInt(a[:0], int64(s.round), 10)) < string(strconv.AppendInt(b[:0], int64(round), 10))
}

// since returns the slots of round and later, dropping the stale ones.
func (in inbox) since(round int) inbox {
	keep := 0
	for i := range in {
		if in[i].round >= round {
			keep++
		}
	}
	if keep == len(in) {
		return in
	}
	nin := make(inbox, 0, keep)
	for i := range in {
		if in[i].round >= round {
			nin = append(nin, in[i])
		}
	}
	return nin
}

// roundBody encodes the body "K|r|v" of a round protocol's message: kind
// letter, decimal round, one-digit value. parseRoundBody decodes it.
func roundBody(kind byte, r int, v model.Value) string {
	b := make([]byte, 0, 24)
	b = append(b, kind, '|')
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, '|', '0'+byte(v))
	return string(b)
}

// parseRoundBody accepts exactly what roundBody writes — no sign, space,
// leading zero, extra field or trailing byte — for rounds below 10⁹. The
// caller checks kind and v against its own alphabet.
func parseRoundBody(body string) (kind byte, r int, v model.Value, ok bool) {
	n := len(body)
	if n < 5 || n > 13 || body[1] != '|' || body[n-2] != '|' {
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
	d := body[n-1] - '0'
	if d > 9 {
		return 0, 0, 0, false
	}
	return body[0], r, model.Value(d), true
}
