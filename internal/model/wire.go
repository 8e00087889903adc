package model

import (
	"encoding/binary"
	"fmt"
)

// This file is the wire layer of the model: a compact, canonical binary
// encoding for the values that cross process boundaries in the distributed
// explorer (package distexplore) — messages, events, schedules, and input
// assignments.
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

// maxWireLen bounds decoded string and slice lengths, for the same reason.
const maxWireLen = 1 << 28

// AppendMessage appends the wire encoding of m to b.
func AppendMessage(b []byte, m Message) []byte {
	b = binary.AppendUvarint(b, uint64(m.To))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(len(m.Body)))
	return append(b, m.Body...)
}

// ConsumeMessage decodes a message from the front of b, returning it and
// the number of bytes consumed.
func ConsumeMessage(b []byte) (Message, int, error) {
	var m Message
	to, n1, err := consumePID(b)
	if err != nil {
		return m, 0, fmt.Errorf("message To: %w", err)
	}
	from, n2, err := consumePID(b[n1:])
	if err != nil {
		return m, 0, fmt.Errorf("message From: %w", err)
	}
	body, n3, err := consumeString(b[n1+n2:])
	if err != nil {
		return m, 0, fmt.Errorf("message Body: %w", err)
	}
	return Message{To: to, From: from, Body: body}, n1 + n2 + n3, nil
}

// Event wire tags.
const (
	wireEventNull    = 0
	wireEventDeliver = 1
)

// AppendEvent appends the wire encoding of e to b.
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
	if len(b) == 0 {
		return Event{}, 0, fmt.Errorf("event: empty buffer")
	}
	tag := b[0]
	p, n, err := consumePID(b[1:])
	if err != nil {
		return Event{}, 0, fmt.Errorf("event P: %w", err)
	}
	switch tag {
	case wireEventNull:
		return Event{P: p}, 1 + n, nil
	case wireEventDeliver:
		m, nm, err := ConsumeMessage(b[1+n:])
		if err != nil {
			return Event{}, 0, err
		}
		return Event{P: p, Msg: &m}, 1 + n + nm, nil
	default:
		return Event{}, 0, fmt.Errorf("event: unknown tag %d", tag)
	}
}

// AppendSchedule appends the wire encoding of s to b.
func AppendSchedule(b []byte, s Schedule) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, e := range s {
		b = AppendEvent(b, e)
	}
	return b
}

// ConsumeSchedule decodes a schedule from the front of b, returning it and
// the number of bytes consumed.
func ConsumeSchedule(b []byte) (Schedule, int, error) {
	count, n, err := consumeUvarint(b)
	if err != nil {
		return nil, 0, fmt.Errorf("schedule length: %w", err)
	}
	if count > uint64(len(b)-n) { // every event is at least two bytes
		return nil, 0, fmt.Errorf("schedule length %d exceeds the %d bytes that remain", count, len(b)-n)
	}
	s := make(Schedule, 0, count)
	off := n
	for i := uint64(0); i < count; i++ {
		e, ne, err := ConsumeEvent(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("schedule event %d: %w", i, err)
		}
		s = append(s, e)
		off += ne
	}
	return s, off, nil
}

// AppendInputs appends the wire encoding of in to b.
func AppendInputs(b []byte, in Inputs) []byte {
	b = binary.AppendUvarint(b, uint64(len(in)))
	for _, v := range in {
		b = append(b, byte(v))
	}
	return b
}

// ConsumeInputs decodes an input assignment from the front of b, returning
// it and the number of bytes consumed.
func ConsumeInputs(b []byte) (Inputs, int, error) {
	count, n, err := consumeUvarint(b)
	if err != nil {
		return nil, 0, fmt.Errorf("inputs length: %w", err)
	}
	if count > maxWirePID {
		return nil, 0, fmt.Errorf("inputs length %d exceeds limit", count)
	}
	if uint64(len(b[n:])) < count {
		return nil, 0, fmt.Errorf("inputs: truncated")
	}
	in := make(Inputs, count)
	for i := range in {
		v := Value(b[n+i])
		if !v.Valid() {
			return nil, 0, fmt.Errorf("inputs: invalid value %d at %d", v, i)
		}
		in[i] = v
	}
	return in, n + int(count), nil
}

// consumeUvarint accepts only the shortest encoding of a value — the one
// AppendUvarint writes — so a payload that decodes re-encodes to the same
// bytes.
func consumeUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0, fmt.Errorf("truncated or malformed uvarint")
	}
	return v, n, nil
}

func consumePID(b []byte) (PID, int, error) {
	v, n, err := consumeUvarint(b)
	if err != nil {
		return 0, 0, err
	}
	if v > maxWirePID {
		return 0, 0, fmt.Errorf("process id %d exceeds limit", v)
	}
	return PID(v), n, nil
}

func consumeString(b []byte) (string, int, error) {
	l, n, err := consumeUvarint(b)
	if err != nil {
		return "", 0, err
	}
	if l > maxWireLen {
		return "", 0, fmt.Errorf("string length %d exceeds limit", l)
	}
	if uint64(len(b[n:])) < l {
		return "", 0, fmt.Errorf("truncated string")
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// AppendString appends a length-prefixed string to b. Exposed for the
// distributed explorer's frame payloads.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ConsumeString decodes a length-prefixed string from the front of b.
func ConsumeString(b []byte) (string, int, error) { return consumeString(b) }

// AppendUvarint appends a varint-encoded unsigned integer to b.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// ConsumeUvarint decodes a varint-encoded unsigned integer from the front
// of b.
func ConsumeUvarint(b []byte) (uint64, int, error) { return consumeUvarint(b) }
