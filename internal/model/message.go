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
func (m Message) Key() string {
	b := make([]byte, 0, 48)
	b = enc.AppendInt(b, int(m.To))
	b = enc.AppendInt(b, int(m.From))
	b = append(enc.AppendEscaped(b, m.Body), enc.Sep...)
	return string(b)
}

func (m Message) String() string {
	return fmt.Sprintf("(%d←%d: %s)", m.To, m.From, m.Body)
}

// Broadcast returns one copy of a message body addressed from p to every
// process in 0..n-1, including p itself. This models the paper's atomic
// broadcast capability: "a process can send the same message in one step to
// all other processes". Delivery of each copy remains independent and
// nondeterministic.
func Broadcast(from PID, n int, body string) []Message {
	msgs := make([]Message, n)
	for i := 0; i < n; i++ {
		msgs[i] = Message{To: PID(i), From: from, Body: body}
	}
	return msgs
}

// BroadcastOthers is Broadcast excluding the sender itself, for protocols
// whose processes account for their own contribution locally.
func BroadcastOthers(from PID, n int, body string) []Message {
	msgs := make([]Message, 0, n-1)
	for i := 0; i < n; i++ {
		if PID(i) == from {
			continue
		}
		msgs = append(msgs, Message{To: PID(i), From: from, Body: body})
	}
	return msgs
}
