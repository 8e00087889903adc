package model

// Tests of the message buffer as a multiset. The first group is the suite
// of the former internal/multiset package re-expressed against Buffer; the
// last test holds Buffer to a map-based reference under random traffic.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// send and remove drive the immutable buffer the way a step does: *b is
// replaced by the buffer with the messages added or one copy taken out.
func send(b *Buffer, ms ...Message) { *b = b.with(nil, recsOf(ms)) }

// recsOf allocates the records of one step's sends, as step does.
func recsOf(ms []Message) []msgRec {
	recs := make([]msgRec, len(ms))
	for i, m := range ms {
		recs[i].msg = m
	}
	return recs
}

func remove(b *Buffer, m Message) bool {
	had := b.Contains(m)
	*b = b.with(&m, nil)
	return had
}

// msg names a test message by one letter (or any body) addressed to p0.
func msg(body string) Message { return Message{To: 0, From: 1, Body: body} }

// bufKey is b's canonical encoding as a string.
func bufKey(b *Buffer) string { return string(b.AppendKey(nil)) }

func TestBufferOperations(t *testing.T) {
	b := new(Buffer)
	m := Message{To: 0, From: 1, Body: "x"}
	send(b, m)
	send(b, m)
	if b.Count(m) != 2 || b.Len() != 2 {
		t.Errorf("Count=%d Len=%d, want 2, 2", b.Count(m), b.Len())
	}
	if !remove(b, m) || b.Count(m) != 1 {
		t.Error("Remove failed")
	}
	clone := *b
	remove(&clone, m)
	if !b.Contains(m) {
		t.Error("Clone not independent")
	}
	if b.Equal(&clone) {
		t.Error("unequal buffers Equal")
	}
	if b.String() == "∅" {
		t.Error("nonempty buffer renders empty")
	}
	remove(b, m)
	if b.String() != "∅" {
		t.Errorf("empty buffer String = %q", b.String())
	}
}

func TestBufferAddRemoveCount(t *testing.T) {
	b := new(Buffer)
	if b.Len() != 0 || len(b.Messages()) != 0 {
		t.Fatalf("new buffer not empty: len=%d distinct=%d", b.Len(), len(b.Messages()))
	}
	send(b, msg("a"))
	send(b, msg("a"), msg("b"))
	if b.Count(msg("a")) != 2 || b.Count(msg("b")) != 1 || b.Count(msg("c")) != 0 {
		t.Errorf("counts wrong: a=%d b=%d c=%d", b.Count(msg("a")), b.Count(msg("b")), b.Count(msg("c")))
	}
	if b.Len() != 3 || len(b.Messages()) != 2 {
		t.Errorf("len=%d distinct=%d, want 3, 2", b.Len(), len(b.Messages()))
	}
	if !remove(b, msg("a")) {
		t.Error("remove(a) = false, want true")
	}
	if b.Count(msg("a")) != 1 {
		t.Errorf("Count(a) after remove = %d, want 1", b.Count(msg("a")))
	}
	if remove(b, msg("missing")) || b.Len() != 2 {
		t.Errorf("remove(missing) took something: Len = %d, want 2", b.Len())
	}
	if !remove(b, msg("a")) || b.Contains(msg("a")) {
		t.Error("second remove(a) should empty it")
	}
	if b.Len() != 1 {
		t.Errorf("final Len = %d, want 1", b.Len())
	}
}

// One step may send several copies of one message; they fold into one
// entry, and sending nothing inserts nothing.
func TestBufferMultiplicity(t *testing.T) {
	b := new(Buffer)
	x := msg("x")
	send(b, x, x, x, x, x)
	send(b)
	if b.Count(x) != 5 || b.Len() != 5 || len(b.Messages()) != 1 {
		t.Errorf("count=%d len=%d distinct=%d, want 5, 5, 1", b.Count(x), b.Len(), len(b.Messages()))
	}
	if b.Contains(msg("y")) {
		t.Error("a message never sent is contained")
	}
	if want := "5x" + x.Key() + ";"; bufKey(b) != want {
		t.Errorf("AppendKey = %q, want %q", bufKey(b), want)
	}
}

// Messages is sorted by Message.Key — byte order of the encoded key, so
// destination 10 sorts before destination 2 — whatever the send order.
func TestBufferMessagesSorted(t *testing.T) {
	b := new(Buffer)
	to := func(p PID, body string) Message { return Message{To: p, From: 0, Body: body} }
	send(b, to(2, "c"), to(0, "a"))
	send(b, to(10, "b"), to(0, "a"), to(0, "a|b"))
	got := b.Messages()
	if len(got) != 4 {
		t.Fatalf("Messages = %v, want 4 distinct", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key() < got[j].Key() }) {
		t.Fatalf("Messages not in key order: %v", got)
	}
	if got[len(got)-1] != to(2, "c") || got[len(got)-2] != to(10, "b") {
		t.Errorf("Messages = %v, want destination 10 before destination 2", got)
	}
	if at1 := b.MessagesTo(10); len(at1) != 1 || at1[0] != to(10, "b") {
		t.Errorf("MessagesTo(10) = %v", at1)
	}
}

// Every distinct message is listed exactly once with its multiplicity.
func TestBufferMessagesVisitAll(t *testing.T) {
	b := new(Buffer)
	send(b, msg("a"), msg("b"), msg("a"))
	seen := map[string]int{}
	for _, m := range b.Messages() {
		seen[m.Body] = b.Count(m)
	}
	if seen["a"] != 2 || seen["b"] != 1 || len(seen) != 2 {
		t.Errorf("Messages visited %v", seen)
	}
}

// A child buffer shares nothing writable with its parent.
func TestBufferChildIndependence(t *testing.T) {
	parent := new(Buffer)
	send(parent, msg("a"), msg("a"))
	parentKey := bufKey(parent)
	child := *parent
	send(&child, msg("b"), msg("a"))
	other := *parent
	remove(&other, msg("a"))
	if bufKey(parent) != parentKey || parent.Count(msg("a")) != 2 || parent.Contains(msg("b")) {
		t.Errorf("parent changed under its children: %v", parent)
	}
	if child.Count(msg("a")) != 3 || !child.Contains(msg("b")) || other.Count(msg("a")) != 1 {
		t.Errorf("children wrong: %v and %v", &child, &other)
	}
}

// Buffers share message records down the generations: a child's count
// bump, a child's removal of the last copy and a grandchild's re-send of a
// removed message leave every ancestor's encoding and Count as they were.
func TestBufferSharedRecordsImmutable(t *testing.T) {
	parent := new(Buffer)
	send(parent, msg("a"), msg("b"))
	parentKey := bufKey(parent)
	type snap struct {
		b   *Buffer
		key string
		a   int
	}
	var gens []snap
	check := func(step string) {
		t.Helper()
		if bufKey(parent) != parentKey || parent.Count(msg("a")) != 1 || parent.Count(msg("b")) != 1 || parent.Len() != 2 {
			t.Fatalf("%s changed the parent: %v", step, parent)
		}
		for _, g := range gens {
			if bufKey(g.b) != g.key || g.b.Count(msg("a")) != g.a {
				t.Fatalf("%s changed an ancestor: %v, was %s", step, g.b, g.key)
			}
		}
	}
	keep := func(b Buffer) *Buffer {
		gens = append(gens, snap{&b, bufKey(&b), b.Count(msg("a"))})
		return &b
	}

	bumped := keep(parent.with(nil, recsOf([]Message{msg("a")})))
	check("count bump")
	if bumped.Count(msg("a")) != 2 || bumped.es[0].rec != parent.es[0].rec {
		t.Errorf("bumped child: count %d, shares record %v", bumped.Count(msg("a")), bumped.es[0].rec == parent.es[0].rec)
	}
	a := msg("a")
	gone := keep(parent.with(&a, nil))
	check("removal to zero")
	if gone.Contains(msg("a")) || gone.Len() != 1 {
		t.Errorf("child after removal: %v", gone)
	}
	resent := keep(gone.with(nil, recsOf([]Message{msg("a"), msg("a")})))
	check("grandchild re-send")
	if resent.Count(msg("a")) != 2 || bufKey(resent) != bufKey(bumped) || !resent.Equal(bumped) {
		t.Errorf("grandchild %v, want the same multiset as %v", resent, bumped)
	}
	if resent.es[0].rec == parent.es[0].rec {
		t.Error("a re-sent message reuses the record of the copy that was removed")
	}
}

func TestBufferEqualAndKey(t *testing.T) {
	a, b := new(Buffer), new(Buffer)
	send(a, msg("x"), msg("y"))
	send(a, msg("x"))
	send(b, msg("y"))
	send(b, msg("x"), msg("x"))
	if !a.Equal(b) {
		t.Error("order-insensitive Equal failed")
	}
	if bufKey(a) != bufKey(b) {
		t.Errorf("keys differ for equal buffers: %q vs %q", bufKey(a), bufKey(b))
	}
	if a.KeyLen() != len(bufKey(a)) || string(a.AppendKey([]byte("p"))) != "p"+bufKey(a) {
		t.Errorf("KeyLen %d / AppendKey onto a prefix disagree with AppendKey %q", a.KeyLen(), bufKey(a))
	}
	send(b, msg("x"))
	if a.Equal(b) || bufKey(a) == bufKey(b) {
		t.Error("buffers with different multiplicities compare equal")
	}
}

func TestBufferString(t *testing.T) {
	b := new(Buffer)
	if b.String() != "∅" {
		t.Errorf("empty String = %q", b.String())
	}
	send(b, msg("a"), msg("a"))
	if want := msg("a").String() + "×2"; b.String() != want {
		t.Errorf("String = %q, want %q", b.String(), want)
	}
}

// Property: for any sequence of sends and removes, remove reports presence,
// counts match a reference, and Len is the sum of counts.
func TestQuickBufferAddRemoveInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		b := new(Buffer)
		ref := map[string]int{}
		alphabet := []string{"a", "b", "c", "d"}
		for _, op := range ops {
			s := alphabet[int(op>>1)%len(alphabet)]
			if op&1 == 0 {
				send(b, msg(s))
				ref[s]++
			} else {
				if remove(b, msg(s)) != (ref[s] > 0) {
					return false
				}
				if ref[s] > 0 {
					ref[s]--
				}
			}
		}
		total := 0
		for s, n := range ref {
			if b.Count(msg(s)) != n {
				return false
			}
			total += n
		}
		return b.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AppendKey is a canonical form — shuffled insertion orders agree.
func TestQuickBufferKeyCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(items []string) bool {
		a, b := new(Buffer), new(Buffer)
		for _, s := range items {
			send(a, msg(s))
		}
		shuffled := append([]string(nil), items...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, s := range shuffled {
			send(b, msg(s))
		}
		return bufKey(a) == bufKey(b) && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refBuffer is the buffer the obvious way: a map from message to count,
// sorted on demand. It is what Buffer replaced, kept as the oracle.
type refBuffer map[Message]int

func (r refBuffer) messages() []Message {
	ms := make([]Message, 0, len(r))
	for m := range r {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key() < ms[j].Key() })
	return ms
}

func (r refBuffer) key() (k string, size int) {
	for _, m := range r.messages() {
		k += fmt.Sprintf("%dx%s;", r[m], m.Key())
		size += r[m]
	}
	return k, size
}

// Property: under random steps (remove at most one message, send a few)
// Buffer and the reference agree on the encoding, Len, Count, Messages
// order and Equal, and KeyLen agrees with the encoding.
func TestQuickBufferMatchesReference(t *testing.T) {
	bodies := []string{"a", "b", "a|b", "x,y", `\`, ""}
	pick := func(r *rand.Rand) Message {
		return Message{To: PID(r.Intn(12)), From: PID(r.Intn(2)), Body: bodies[r.Intn(len(bodies))]}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b, ref := new(Buffer), refBuffer{}
		for step := 0; step < 60; step++ {
			prev, prevKey := *b, bufKey(b)
			var rm *Message
			if r.Intn(2) == 0 {
				m := pick(r)
				if ms := b.Messages(); len(ms) > 0 && r.Intn(4) > 0 {
					m = ms[r.Intn(len(ms))]
				}
				rm = &m
				if ref[m]--; ref[m] <= 0 {
					delete(ref, m)
				}
			}
			sends := make([]Message, r.Intn(4))
			for i := range sends {
				sends[i] = pick(r)
				ref[sends[i]]++
			}
			*b = b.with(rm, recsOf(sends))

			wantKey, wantLen := ref.key()
			want := ref.messages()
			got := b.Messages()
			if bufKey(b) != wantKey || b.Len() != wantLen || len(got) != len(want) {
				return false
			}
			for i, m := range want {
				if got[i] != m || b.Count(m) != ref[m] {
					return false
				}
			}
			if b.KeyLen() != len(wantKey) {
				return false
			}
			if bufKey(&prev) != prevKey || b.Equal(&prev) != (wantKey == prevKey) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
