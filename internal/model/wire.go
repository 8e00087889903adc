package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the model's one binary codec: a compact, canonical encoding
// for the values that cross process boundaries in the distributed explorer
// (package distexplore) — messages, events, schedules, and input
// assignments — and the Reader that every binary payload in the repository
// is decoded with, cluster frames and atlas artifacts alike. An event has
// one byte form, AppendEvent's, on the wire, at rest and in checkpoint
// names.
//
// Configurations themselves never cross the wire as state dumps: process
// states are protocol-defined opaque values (only their canonical key is
// visible to the model), so a configuration is transmitted as identity plus
// provenance — its binary canonical key, Config.KeyBytes (the identity
// every visited-set decision is made on, here as in process), and the
// Event that steps its parent into it, or for a parent the receiver does
// not hold, the Schedule that reaches it from the root. Any party holding
// the protocol and the parent (or the root) can rematerialize the
// configuration, and verify the result against the transmitted key. This keeps
// the wire format protocol-agnostic: nothing here needs to change when a
// new Protocol implementation is added.
//
// The hash contract that hash-range partitioning rests on is the one the
// interner already has: Config.Hash() is the FNV-1a hash of KeyBytes(),
// everywhere. A party that holds only a transmitted key is sent the
// fingerprint beside it and never derives one from another encoding.

// maxWirePID bounds decoded process identifiers; real protocols have a
// handful of processes, so anything larger is a corrupt or hostile frame.
const maxWirePID = 1 << 20

// AppendMessage appends the wire encoding of m to b.
func AppendMessage(b []byte, m Message) []byte {
	b = binary.AppendUvarint(b, uint64(m.To))
	b = binary.AppendUvarint(b, uint64(m.From))
	return AppendString(b, m.Body)
}

// Event wire tags.
const (
	wireEventNull    = 0
	wireEventDeliver = 1
)

// AppendEvent appends the wire encoding of e to b: a tag byte, the
// process, and for a delivery the message. It is the only byte encoding of
// an event.
func AppendEvent(b []byte, e Event) []byte {
	if e.Msg == nil {
		b = append(b, wireEventNull)
		return binary.AppendUvarint(b, uint64(e.P))
	}
	b = append(b, wireEventDeliver)
	b = binary.AppendUvarint(b, uint64(e.P))
	return AppendMessage(b, *e.Msg)
}

// ConsumeEvent decodes an event from the front of b, returning it and the
// number of bytes consumed.
func ConsumeEvent(b []byte) (Event, int, error) {
	r := NewReader(b)
	e := r.Event("event")
	return e, len(b) - r.Len(), r.Err()
}

// AppendSchedule appends the wire encoding of s to b.
func AppendSchedule(b []byte, s Schedule) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, e := range s {
		b = AppendEvent(b, e)
	}
	return b
}

// AppendInputs appends the wire encoding of in to b.
func AppendInputs(b []byte, in Inputs) []byte {
	b = binary.AppendUvarint(b, uint64(len(in)))
	for _, v := range in {
		b = append(b, byte(v))
	}
	return b
}

// AppendString appends a uvarint-length-prefixed string to b.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint-length-prefixed byte string to b.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendUvarint appends a varint-encoded unsigned integer to b.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// Reader decodes one payload front to back. The first failure sticks and
// empties the buffer, so a decoder reads its fields unconditionally and
// checks once, with Err or Done; every read after a failure returns a zero
// value. Each read names the field it decodes, and a failure's error starts
// with that name. Only the shortest encoding of a uvarint — the one
// AppendUvarint writes — is accepted, so a payload that decodes re-encodes
// to the same bytes. Counts are bounded by the bytes that remain (every
// element of every list is at least one byte), so a hostile count can size
// no slice past the payload's own length. Byte strings alias the payload.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) }

// Fail records a failure of the named field unless one is already recorded,
// and empties the buffer.
func (r *Reader) Fail(what string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", what, err)
	}
	r.b = nil
}

// Done returns the first failure, or reports that the payload was not used
// up.
func (r *Reader) Done(what string) error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail(what, fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail(what, fmt.Errorf("truncated or malformed uvarint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a uvarint that must fit an int32: a level, index, shard or
// process count.
func (r *Reader) Int(what string) int {
	v := r.Uvarint(what)
	if v > math.MaxInt32 {
		r.Fail(what, fmt.Errorf("%d is out of range", v))
		return 0
	}
	return int(v)
}

// Count reads the uvarint length of a list or byte string, which must not
// exceed the bytes that remain.
func (r *Reader) Count(what string) int {
	v := r.Uvarint(what)
	if v > uint64(len(r.b)) {
		r.Fail(what, fmt.Errorf("count %d exceeds the %d bytes that remain", v, len(r.b)))
		return 0
	}
	return int(v)
}

// Next reads the next n bytes.
func (r *Reader) Next(what string, n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.b)) {
		r.Fail(what, fmt.Errorf("%d bytes wanted, %d remain", n, len(r.b)))
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32(what string) uint32 {
	if p := r.Next(what, 4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64(what string) uint64 {
	if p := r.Next(what, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Bytes reads a uvarint-length-prefixed byte string.
func (r *Reader) Bytes(what string) []byte { return r.Next(what, r.Count(what)) }

// String reads a uvarint-length-prefixed string.
func (r *Reader) String(what string) string { return string(r.Bytes(what)) }

func (r *Reader) pid(what string) PID {
	v := r.Uvarint(what)
	if v > maxWirePID {
		r.Fail(what, fmt.Errorf("process id %d exceeds limit", v))
		return 0
	}
	return PID(v)
}

// Message reads an AppendMessage encoding.
func (r *Reader) Message(what string) Message {
	return Message{To: r.pid(what), From: r.pid(what), Body: r.String(what)}
}

// Event reads an AppendEvent encoding.
func (r *Reader) Event(what string) Event {
	tag := r.Next(what, 1)
	e := Event{P: r.pid(what)}
	switch {
	case r.err != nil:
		return Event{}
	case tag[0] == wireEventDeliver:
		m := r.Message(what)
		e.Msg = &m
	case tag[0] != wireEventNull:
		r.Fail(what, fmt.Errorf("unknown event tag %d", tag[0]))
	}
	if r.err != nil {
		return Event{}
	}
	return e
}

// Schedule reads an AppendSchedule encoding.
func (r *Reader) Schedule(what string) Schedule {
	s := make(Schedule, r.Count(what))
	for i := range s {
		s[i] = r.Event(what)
	}
	if r.err != nil {
		return nil
	}
	return s
}

// Inputs reads an AppendInputs encoding.
func (r *Reader) Inputs(what string) Inputs {
	p := r.Bytes(what)
	if r.err != nil {
		return nil
	}
	in := make(Inputs, len(p))
	for i, b := range p {
		if in[i] = Value(b); !in[i].Valid() {
			r.Fail(what, fmt.Errorf("invalid value %d at %d", b, i))
			return nil
		}
	}
	return in
}
