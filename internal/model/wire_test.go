package model_test

import (
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

func TestMessageWireRoundTrip(t *testing.T) {
	cases := []model.Message{
		{To: 0, From: 1, Body: ""},
		{To: 2, From: 0, Body: "R|1|0|"},
		{To: 5, From: 3, Body: "body with | separators \\ and unicode ∅"},
	}
	for _, m := range cases {
		r := model.NewReader(model.AppendMessage(nil, m))
		if got := r.Message("message"); r.Done("message") != nil || got != m {
			t.Fatalf("round trip %v: got %v, err %v", m, got, r.Err())
		}
	}
}

func TestScheduleWireRoundTrip(t *testing.T) {
	msg := model.Message{To: 1, From: 0, Body: "vote|0"}
	s := model.Schedule{
		model.NullEvent(0),
		model.Deliver(msg),
		model.NullEvent(2),
	}
	r := model.NewReader(model.AppendSchedule(nil, s))
	got := r.Schedule("schedule")
	if err := r.Done("schedule"); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("%d events of %d", len(got), len(s))
	}
	for i := range s {
		if !got[i].Same(s[i]) {
			t.Fatalf("event %d: got %v, want %v", i, got[i], s[i])
		}
	}
}

func TestInputsWireRoundTrip(t *testing.T) {
	for _, in := range model.AllInputs(4) {
		r := model.NewReader(model.AppendInputs(nil, in))
		if got := r.Inputs("inputs"); r.Done("inputs") != nil || got.String() != in.String() {
			t.Fatalf("round trip %s: got %s, err %v", in, got, r.Err())
		}
	}
}

// TestConsumeEventRoundTrip holds the byte-slice wrapper to the reader: it
// consumes exactly one event from the front of a longer buffer.
func TestConsumeEventRoundTrip(t *testing.T) {
	e := model.Deliver(model.Message{To: 2, From: 1, Body: "x"})
	b := model.AppendEvent(nil, e)
	got, n, err := model.ConsumeEvent(append(b, 0xFF))
	if err != nil || n != len(b) || !got.Same(e) {
		t.Fatalf("ConsumeEvent: %v after %d of %d bytes, err %v", got, n, len(b), err)
	}
}

// TestWireDecodeCorruption confirms the reader fails loudly on truncated
// or malformed payloads instead of panicking or fabricating values, and
// that each failure names the field being read.
func TestWireDecodeCorruption(t *testing.T) {
	msg := model.Message{To: 1, From: 0, Body: "hello"}
	whole := map[string][]byte{
		"message":  model.AppendMessage(nil, msg),
		"event":    model.AppendEvent(nil, model.Deliver(msg)),
		"schedule": model.AppendSchedule(nil, model.Schedule{model.NullEvent(0), model.Deliver(msg)}),
		"inputs":   model.AppendInputs(nil, model.Inputs{0, 1, 1}),
	}
	read := map[string]func(r *model.Reader){
		"message":  func(r *model.Reader) { r.Message("message") },
		"event":    func(r *model.Reader) { r.Event("event") },
		"schedule": func(r *model.Reader) { r.Schedule("schedule") },
		"inputs":   func(r *model.Reader) { r.Inputs("inputs") },
	}
	for name, full := range whole {
		for cut := 0; cut < len(full); cut++ {
			r := model.NewReader(full[:cut])
			read[name](&r)
			if err := r.Err(); err == nil || !strings.HasPrefix(err.Error(), name+": ") {
				t.Fatalf("%s truncated at %d of %d: err %v", name, cut, len(full), err)
			}
		}
	}
	refused := []struct {
		name string
		in   []byte
		read func(r *model.Reader)
	}{
		{"non-shortest uvarint", []byte{0x80, 0x00}, func(r *model.Reader) { r.Uvarint("u") }},
		{"unknown event tag", []byte{99, 0}, func(r *model.Reader) { r.Event("e") }},
		{"invalid input value", []byte{1, 7}, func(r *model.Reader) { r.Inputs("in") }},
		{"count past the payload", []byte{5, 0}, func(r *model.Reader) { r.Count("c") }},
		{"process id past the limit", model.AppendUvarint([]byte{0}, 1<<21), func(r *model.Reader) { r.Event("e") }},
		{"trailing bytes", []byte{0, 0, 0}, func(r *model.Reader) { r.Event("e"); _ = r.Done("e") }},
	}
	for _, c := range refused {
		r := model.NewReader(c.in)
		c.read(&r)
		if r.Err() == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		if r.Len() != 0 {
			t.Errorf("%s: the failure left %d bytes to read", c.name, r.Len())
		}
	}
}
