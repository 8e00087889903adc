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
// multiplicities, sorted by Message.Key, built once with its configuration
// (build, draft.go) and never written again. That is what lets every
// configuration share it across goroutines, lets events point at its
// messages, and makes the canonical encoding a linear scan. The zero value
// is the empty buffer.
type Buffer struct {
	es     []bufEntry
	size   int // total multiplicity
	keyLen int // len(AppendKey(nil))
}

// bufEntry is one distinct message of a buffer and its multiplicity. The
// message lives in a record shared with every other buffer that holds it,
// so a child buffer copies 16 bytes per entry of its parent.
type bufEntry struct {
	rec   *msgRec
	count int
}

// msgRec is a sent message and its key (msg.Key()). Building a step's
// child allocates the records of its sends — one slice for all of them —
// and keys those that first enter a buffer there; from then on a record is
// immutable and is shared by that buffer and all its descendants. Delivery
// events point at msg.
type msgRec struct {
	key string
	msg Message
}

// find returns the index of *m's entry, or -1. Message.Key is injective, so
// comparing the structs is comparing the keys without formatting one; an
// event enumerated from this buffer or an ancestor points at the record
// itself, which the address test settles without reading the message.
func (b *Buffer) find(m *Message) int {
	for i := range b.es {
		if r := b.es[i].rec; &r.msg == m || r.msg == *m {
			return i
		}
	}
	return -1
}

// Contains reports whether at least one copy of m is in the buffer.
func (b *Buffer) Contains(m Message) bool { return b.find(&m) >= 0 }

// Count returns the multiplicity of m.
func (b *Buffer) Count(m Message) int {
	if i := b.find(&m); i >= 0 {
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
		msgs[i] = b.es[i].rec.msg
	}
	return msgs
}

// appendDeliveries appends one delivery event per distinct message
// addressed to p, in canonical order, pointing at b's message records.
func (b *Buffer) appendDeliveries(evs []Event, p PID) []Event {
	for i := range b.es {
		if b.es[i].rec.msg.To == p {
			evs = append(evs, Event{P: p, Msg: &b.es[i].rec.msg})
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
		if br, or := b.es[i].rec, o.es[i].rec; b.es[i].count != o.es[i].count || (br != or && br.msg != or.msg) {
			return false
		}
	}
	return true
}

// AppendKey appends the canonical encoding of the buffer contents to dst:
// the distinct messages in key order, each as "count x key ;". Two buffers
// are Equal iff their encodings are identical.
func (b *Buffer) AppendKey(dst []byte) []byte {
	for i := range b.es {
		dst = appendEntry(dst, b.es[i].count, b.es[i].rec.key)
	}
	return dst
}

// appendEntry appends the encoding of one entry, "count x key ;".
func appendEntry[T string | []byte](dst []byte, count int, key T) []byte {
	dst = strconv.AppendInt(dst, int64(count), 10)
	dst = append(dst, 'x')
	dst = append(dst, key...)
	return append(dst, ';')
}

// hashKey folds the bytes of AppendKey(nil) into the FNV-1a state h
// without building them.
func (b *Buffer) hashKey(h uint64) uint64 {
	for i := range b.es {
		h = hashEntry(h, b.es[i].count, b.es[i].rec.key)
	}
	return h
}

// KeyLen returns len(AppendKey(nil)) without building the encoding.
func (b *Buffer) KeyLen() int { return b.keyLen }

// hashEntry folds the encoding of one entry, "count x key ;", into h.
func hashEntry[T string | []byte](h uint64, count int, key T) uint64 {
	var digits [20]byte
	h = fnvAdd(h, strconv.AppendInt(digits[:0], int64(count), 10))
	return fnvByte(fnvAdd(fnvByte(h, 'x'), key), ';')
}

// entryKeyLen returns the length of the encoding of one entry whose key
// has keyLen bytes; an entry of count 0 is no entry.
func entryKeyLen(count, keyLen int) int {
	if count == 0 {
		return 0
	}
	n := 2 + keyLen
	for ; count > 0; count /= 10 {
		n++
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
		s := b.es[i].rec.msg.String()
		if c := b.es[i].count; c > 1 {
			s += "×" + strconv.Itoa(c)
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
