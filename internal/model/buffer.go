package model

import (
	"sort"
	"strconv"
	"strings"
)

// Buffer is the message buffer: the multiset of messages that have been
// sent but not yet delivered ("the message system maintains a multiset,
// called the message buffer", Section 2). It is the untimed, model-level
// view; the runtime and the Theorem 1 adversary impose ordering
// disciplines above it.
//
// A Buffer is immutable: one slice of distinct messages with their
// multiplicities, sorted by Message.Key, built once by with and never
// written again. That is what lets every configuration share it across
// goroutines, lets events point at its entries, and makes the canonical
// encoding a linear scan. The zero value is the empty buffer.
type Buffer struct {
	es   []bufEntry
	size int // total multiplicity
}

// bufEntry is one distinct message of a buffer. key is msg.Key(), computed
// once when the message first enters a buffer and carried from parent to
// child from then on.
type bufEntry struct {
	key   string
	msg   Message
	count int
}

// with returns the buffer that holds b's messages less one copy of *remove
// (nil, or a message not in b, removes nothing) plus one copy of every
// message in sends: the buffer half of a step, in one allocation.
func (b *Buffer) with(remove *Message, sends []Message) Buffer {
	nb := Buffer{es: make([]bufEntry, 0, len(b.es)+len(sends)), size: b.size}
	for _, e := range b.es {
		if remove != nil && e.msg == *remove {
			remove = nil
			nb.size--
			if e.count--; e.count == 0 {
				continue
			}
		}
		nb.es = append(nb.es, e)
	}
	for _, m := range sends {
		nb.size++
		if i := nb.find(m); i >= 0 {
			nb.es[i].count++
			continue
		}
		k := m.Key()
		i := sort.Search(len(nb.es), func(i int) bool { return nb.es[i].key >= k })
		nb.es = append(nb.es, bufEntry{})
		copy(nb.es[i+1:], nb.es[i:])
		nb.es[i] = bufEntry{key: k, msg: m, count: 1}
	}
	return nb
}

// find returns the index of m's entry, or -1. Message.Key is injective, so
// comparing the structs is comparing the keys without formatting one.
func (b *Buffer) find(m Message) int {
	for i := range b.es {
		if b.es[i].msg == m {
			return i
		}
	}
	return -1
}

// Contains reports whether at least one copy of m is in the buffer.
func (b *Buffer) Contains(m Message) bool { return b.find(m) >= 0 }

// Count returns the multiplicity of m.
func (b *Buffer) Count(m Message) int {
	if i := b.find(m); i >= 0 {
		return b.es[i].count
	}
	return 0
}

// Len returns the total number of undelivered messages.
func (b *Buffer) Len() int { return b.size }

// Messages returns the distinct messages in the buffer in canonical order.
// Multiplicities are available via Count.
func (b *Buffer) Messages() []Message {
	msgs := make([]Message, len(b.es))
	for i := range b.es {
		msgs[i] = b.es[i].msg
	}
	return msgs
}

// MessagesTo returns the distinct messages addressed to p, in canonical
// order. Delivering any one of them (or nothing) is an applicable event for
// p; duplicates of the same message are interchangeable in the multiset
// semantics, so distinct messages suffice for event enumeration.
func (b *Buffer) MessagesTo(p PID) []Message {
	var msgs []Message
	for i := range b.es {
		if b.es[i].msg.To == p {
			msgs = append(msgs, b.es[i].msg)
		}
	}
	return msgs
}

// appendDeliveries appends one delivery event per distinct message
// addressed to p, in canonical order, pointing at b's entries.
func (b *Buffer) appendDeliveries(evs []Event, p PID) []Event {
	for i := range b.es {
		if b.es[i].msg.To == p {
			evs = append(evs, Event{P: p, Msg: &b.es[i].msg})
		}
	}
	return evs
}

// Equal reports whether two buffers hold exactly the same multiset.
func (b *Buffer) Equal(o *Buffer) bool {
	if len(b.es) != len(o.es) {
		return false
	}
	for i := range b.es {
		if b.es[i].msg != o.es[i].msg || b.es[i].count != o.es[i].count {
			return false
		}
	}
	return true
}

// Key returns the canonical encoding of the buffer contents: the distinct
// messages in key order, each as "count x key ;". Two buffers are Equal iff
// their Keys are identical.
func (b *Buffer) Key() string {
	return string(b.AppendKey(make([]byte, 0, b.KeyLen())))
}

// AppendKey appends the canonical encoding to dst; byte-identical to Key.
func (b *Buffer) AppendKey(dst []byte) []byte {
	for i := range b.es {
		dst = strconv.AppendInt(dst, int64(b.es[i].count), 10)
		dst = append(dst, 'x')
		dst = append(dst, b.es[i].key...)
		dst = append(dst, ';')
	}
	return dst
}

// KeyLen returns len(Key()) without building the encoding.
func (b *Buffer) KeyLen() int {
	n := 0
	for i := range b.es {
		n += 2 + len(b.es[i].key)
		for c := b.es[i].count; c > 0; c /= 10 {
			n++
		}
	}
	return n
}

// String renders the buffer for traces and debugging.
func (b *Buffer) String() string {
	if b.size == 0 {
		return "∅"
	}
	parts := make([]string, 0, len(b.es))
	for i := range b.es {
		s := b.es[i].msg.String()
		if c := b.es[i].count; c > 1 {
			s += "×" + strconv.Itoa(c)
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
