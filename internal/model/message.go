package model

import (
	"fmt"

	"github.com/flpsim/flp/internal/enc"
)

// Message is a message (p, m) in the paper's notation: a destination
// process together with a message value. The sender is carried explicitly
// because every protocol in practice encodes it; making it a field keeps
// protocol message bodies readable.
//
// Messages are immutable values. Two messages are the same element of the
// buffer multiset iff all three fields are equal.
type Message struct {
	// To is the destination process p.
	To PID
	// From is the sending process.
	From PID
	// Body is the message value m, drawn from the protocol's message
	// universe M. Protocols encode whatever structure they need into it;
	// helpers in package enc keep encodings canonical.
	Body string
}

// Key returns the canonical encoding of the message, used as its identity
// in the buffer multiset.
func (m Message) Key() string { return string(m.AppendKey(make([]byte, 0, 48))) }

// AppendKey appends Key() to dst and returns the extended slice.
func (m Message) AppendKey(dst []byte) []byte {
	dst = enc.AppendInt(dst, int(m.To))
	dst = enc.AppendInt(dst, int(m.From))
	return append(enc.AppendEscaped(dst, m.Body), enc.Sep...)
}

func (m Message) String() string {
	return fmt.Sprintf("(%d←%d: %s)", m.To, m.From, m.Body)
}

// AppendBroadcast appends one copy of a message body addressed from p to
// every process in 0..n-1, including p itself, to dst and returns the
// extended slice. This models the paper's atomic broadcast capability: "a
// process can send the same message in one step to all other processes".
// Delivery of each copy remains independent and nondeterministic. dst grows
// at most once per call, and not at all when it has room for n more: a step
// appends every broadcast it makes to its one sends slice.
func AppendBroadcast(dst []Message, from PID, n int, body string) []Message {
	dst = grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, Message{To: PID(i), From: from, Body: body})
	}
	return dst
}

// AppendBroadcastOthers is AppendBroadcast excluding the sender itself, for
// protocols whose processes account for their own contribution locally.
func AppendBroadcastOthers(dst []Message, from PID, n int, body string) []Message {
	dst = grow(dst, n-1)
	for i := 0; i < n; i++ {
		if PID(i) != from {
			dst = append(dst, Message{To: PID(i), From: from, Body: body})
		}
	}
	return dst
}

// grow returns dst with room for n more messages: dst itself when it has
// the room, else a copy in one allocation. It is slices.Grow without the
// scratch slice a race-instrumented build allocates for it.
func grow(dst []Message, n int) []Message {
	if len(dst)+n <= cap(dst) {
		return dst
	}
	grown := make([]Message, len(dst), max(len(dst)+n, 2*cap(dst)))
	copy(grown, dst)
	return grown
}
