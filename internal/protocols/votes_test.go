package protocols

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

func keyOf(v votes) string { return string(v.appendKey(nil)) }

// roundBodies is the table of message bodies the round protocols must
// accept or reject. The accepted ones are exactly what roundBody writes.
var roundBodies = []struct {
	body string
	ok   bool
	kind byte
	r    int
	v    model.Value
}{
	{"E|1|0", true, 'E', 1, 0},
	{"E|1|1", true, 'E', 1, 1},
	{"R|12|1", true, 'R', 12, 1},
	{"P|7|2", true, 'P', 7, 2},
	{"E|0|0", true, 'E', 0, 0},
	{"E|999999999|1", true, 'E', 999999999, 1},
	{"E|1|0 ", false, 0, 0, 0},         // trailing byte (Sscanf took it)
	{"E|1|0|9", false, 0, 0, 0},        // extra field
	{"E|1|0x", false, 0, 0, 0},         // trailing garbage
	{"E|1|", false, 0, 0, 0},           // no value
	{"E|1", false, 0, 0, 0},            // no value field
	{"E||0", false, 0, 0, 0},           // no round
	{"E|x|0", false, 0, 0, 0},          // round is not a number
	{"E|-1|0", false, 0, 0, 0},         // sign
	{"E|+1|0", false, 0, 0, 0},         // sign
	{"E|01|0", false, 0, 0, 0},         // leading zero: not what roundBody writes
	{"E|1|10", false, 0, 0, 0},         // two-digit value
	{"E|1|a", false, 0, 0, 0},          // value is not a digit
	{"E|1|-", false, 0, 0, 0},          // value below '0'
	{"E 1 0", false, 0, 0, 0},          // wrong separators
	{"EE|1|0", false, 0, 0, 0},         // two-letter kind
	{"E|1234567890|0", false, 0, 0, 0}, // round past the 10⁹ bound
	{"", false, 0, 0, 0},
	{"V1", false, 0, 0, 0},
}

func TestParseRoundBody(t *testing.T) {
	for _, tc := range roundBodies {
		kind, r, v, ok := parseRoundBody(tc.body)
		if ok != tc.ok || (ok && (kind != tc.kind || r != tc.r || v != tc.v)) {
			t.Errorf("parseRoundBody(%q) = (%c, %d, %d, %v), want (%c, %d, %d, %v)",
				tc.body, kind, r, v, ok, tc.kind, tc.r, tc.v, tc.ok)
		}
		if ok && roundBody(kind, r, v) != tc.body {
			t.Errorf("roundBody(%c, %d, %d) = %q, parsed from %q", kind, r, v, roundBody(kind, r, v), tc.body)
		}
	}
	for _, r := range []int{1, 9, 10, 123, 4096} {
		if want := fmt.Sprintf("E|%d|%d", r, model.V1); roundBody('E', r, model.V1) != want {
			t.Errorf("roundBody(E, %d, 1) = %q, want %q", r, roundBody('E', r, model.V1), want)
		}
	}
}

// A delivery whose body the protocol does not accept is consumed and
// changes nothing; one it accepts is recorded. Beyond the table above, each
// protocol rejects the kinds and values outside its own alphabet.
func TestRoundProtocolsRejectMalformedBodies(t *testing.T) {
	type variant struct {
		pr       model.Protocol
		accepted []string
		rejected []string
	}
	variants := []variant{
		{NewOneThirdRule(4),
			[]string{"E|1|0", "E|1|1", "E|3|1"},
			[]string{"E|1|2", "R|1|0", "P|1|2", "e|1|0"}},
		{NewBenOrDeterministic(3, 1),
			[]string{"R|1|0", "R|2|1", "P|1|0", "P|1|2"},
			[]string{"R|1|2", "P|1|3", "E|1|0", "r|1|0"}},
	}
	for _, v := range variants {
		for _, tc := range roundBodies {
			if !tc.ok {
				v.rejected = append(v.rejected, tc.body)
			}
		}
		started, _ := v.pr.Step(0, v.pr.Init(0, model.V0), nil)
		deliver := func(body string) string {
			ns, sends := v.pr.Step(0, started, &model.Message{To: 0, From: 1, Body: body})
			return fmt.Sprint(ns.Key(), sends)
		}
		idle := fmt.Sprint(started.Key(), []model.Message(nil))
		for _, body := range v.accepted {
			if deliver(body) == idle {
				t.Errorf("%s: delivery of %q was ignored", v.pr.Name(), body)
			}
		}
		for _, body := range v.rejected {
			if got := deliver(body); got != idle {
				t.Errorf("%s: delivery of malformed %q changed the state: %s", v.pr.Name(), body, got)
			}
		}
	}
}

// Paxos bodies: the five forms, and nothing else.
func TestParsePaxos(t *testing.T) {
	for _, tc := range []struct {
		body string
		kind string
		f    [3]int
		n    int
	}{
		{"prep|4", "prep", [3]int{4}, 1},
		{"prom|4|-1|0", "prom", [3]int{4, -1, 0}, 3},
		{"nack|3|7", "nack", [3]int{3, 7}, 2},
		{"accd|12|1", "accd", [3]int{12, 1}, 2},
		{"prep", "", [3]int{}, 0},
		{"prep|", "", [3]int{}, 0},
		{"prep|x", "", [3]int{}, 0},
		{"prom|1|2|0|9", "", [3]int{}, 0},
		{"acc|1|", "", [3]int{}, 0},
		{"", "", [3]int{}, 0},
	} {
		kind, f, n := parsePaxos(tc.body)
		if n != tc.n || (n > 0 && (kind != tc.kind || f != tc.f)) {
			t.Errorf("parsePaxos(%q) = (%q, %v, %d), want (%q, %v, %d)", tc.body, kind, f, n, tc.kind, tc.f, tc.n)
		}
		if n > 0 && pxBody(kind, f[:n]...) != tc.body {
			t.Errorf("pxBody(%q, %v) = %q, parsed from %q", kind, f[:n], pxBody(kind, f[:n]...), tc.body)
		}
	}
	px := NewPaxosSynod(3)
	started, _ := px.Step(0, px.Init(0, model.V0), nil)
	for _, body := range []string{"prep", "prom|0|-1|2", "acc|0|7", "accd|0", "nack|0|1|2", "bogus|1"} {
		ns, sends := px.Step(0, started, &model.Message{To: 0, From: 1, Body: body})
		if ns.Key() != started.Key() || len(sends) != 0 {
			t.Errorf("paxos: delivery of malformed %q changed the state or sent %v", body, sends)
		}
	}
}

// votes, pidSet and inbox are shared between a state and all its
// successors: with builds a new value and never writes the one it was
// called on, so two children of one state cannot see each other's votes.
func TestVotesAndInboxNeverAlias(t *testing.T) {
	base := votes{{0, 0}, {2, 1}}
	key := keyOf(base)
	a := base.with(1, 1)
	b := base.with(3, 0)
	c := base.with(2, 0) // a process changes its vote
	same := base.with(2, 1)
	if keyOf(base) != key || len(base) != 2 {
		t.Fatalf("with wrote to its receiver: %q, was %q", keyOf(base), key)
	}
	for _, tc := range []struct {
		got  votes
		want string
	}{{a, "0:0,1:1,2:1"}, {b, "0:0,2:1,3:0"}, {c, "0:0,2:0"}, {same, key}, {nil, ""}, {votes(nil).with(5, 1), "5:1"}} {
		if keyOf(tc.got) != tc.want {
			t.Errorf("votes %q, want %q", keyOf(tc.got), tc.want)
		}
	}
	if a.count(model.V1) != 2 || c.majority() != model.V0 || a.majority() != model.V1 {
		t.Errorf("count/majority wrong on %q / %q", keyOf(a), keyOf(c))
	}

	set := pidSet{1, 4}
	if x, y := set.with(2), set.with(0); string(x.appendKey(nil)) != "1,2,4" || string(y.appendKey(nil)) != "0,1,4" ||
		string(set.appendKey(nil)) != "1,4" || len(set.with(4)) != 2 {
		t.Errorf("pidSet.with: %v %v from %v", x, y, set)
	}

	in := inbox(nil).with('R', 1, 0, 1).with('P', 1, 0, 2)
	left := in.with('R', 1, 2, 0)
	right := in.with('R', 1, 1, 1).with('R', 2, 1, 0)
	if keyOf(in.get('R', 1)) != "0:1" || len(in) != 2 {
		t.Fatalf("inbox.with wrote to its receiver: %v", in)
	}
	if keyOf(left.get('R', 1)) != "0:1,2:0" || keyOf(right.get('R', 1)) != "0:1,1:1" || left.get('R', 2) != nil {
		t.Errorf("siblings share votes: left %v, right %v", left, right)
	}
	if pruned := right.since(2); len(pruned) != 1 || pruned[0].round != 2 || len(right) != 3 {
		t.Errorf("since(2) = %v from %v", pruned, right)
	}
	if len(in.since(1)) != len(in) {
		t.Errorf("since(1) dropped a slot of %v", in)
	}
}

// Two deliveries to one onethird / Ben-Or state give children that differ
// from each other and leave the parent's key alone.
func TestRoundStateChildrenIndependent(t *testing.T) {
	for _, tc := range []struct {
		pr     model.Protocol
		m1, m2 string
	}{
		{NewOneThirdRule(4), "E|1|0", "E|1|1"},
		{NewBenOrDeterministic(3, 1), "R|1|0", "P|1|2"},
	} {
		s, _ := tc.pr.Step(0, tc.pr.Init(0, model.V1), nil)
		s, _ = tc.pr.Step(0, s, &model.Message{To: 0, From: 2, Body: tc.m1})
		key := s.Key()
		a, _ := tc.pr.Step(0, s, &model.Message{To: 0, From: 1, Body: tc.m1})
		b, _ := tc.pr.Step(0, s, &model.Message{To: 0, From: 1, Body: tc.m2})
		aKey := a.Key()
		tc.pr.Step(0, a, &model.Message{To: 0, From: 0, Body: tc.m2}) // a grandchild
		if s.Key() != key || a.Key() != aKey || a.Key() == b.Key() || a.Key() == key {
			t.Errorf("%s: parent %q→%q, children %q→%q and %q", tc.pr.Name(), key, s.Key(), aKey, a.Key(), b.Key())
		}
	}
}

// The inbox keeps its slots in the order sort.Strings gives their keys
// "kind|round", which is what the map-backed inbox sorted by: round 10
// before round 9.
func TestInboxOrderIsKeyStringOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rounds := []int{1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 1000}
	for trial := 0; trial < 50; trial++ {
		var in inbox
		for _, i := range r.Perm(2 * len(rounds)) {
			in = in.with("PR"[i%2], rounds[i/2], model.PID(trial%3), model.V1)
		}
		keys := make([]string, len(in))
		for i, sl := range in {
			keys[i] = fmt.Sprintf("%c|%d", sl.kind, sl.round)
		}
		if len(in) != 2*len(rounds) || !sort.StringsAreSorted(keys) {
			t.Fatalf("slots out of key order: %v", keys)
		}
	}
}
