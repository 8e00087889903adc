package model_test

import (
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
		b := model.AppendMessage(nil, m)
		got, n, err := model.ConsumeMessage(b)
		if err != nil {
			t.Fatalf("decode %v: %v", m, err)
		}
		if n != len(b) || got != m {
			t.Fatalf("round trip %v: got %v, consumed %d of %d", m, got, n, len(b))
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
	b := model.AppendSchedule(nil, s)
	got, n, err := model.ConsumeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || len(got) != len(s) {
		t.Fatalf("consumed %d of %d, %d events of %d", n, len(b), len(got), len(s))
	}
	for i := range s {
		if !got[i].Same(s[i]) {
			t.Fatalf("event %d: got %v, want %v", i, got[i], s[i])
		}
	}
}

func TestInputsWireRoundTrip(t *testing.T) {
	for _, in := range model.AllInputs(4) {
		b := model.AppendInputs(nil, in)
		got, n, err := model.ConsumeInputs(b)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(b) || got.String() != in.String() {
			t.Fatalf("round trip %s: got %s", in, got)
		}
	}
}

// TestWireDecodeCorruption confirms the decoders fail loudly on truncated
// or malformed frames instead of panicking or fabricating values.
func TestWireDecodeCorruption(t *testing.T) {
	msg := model.Message{To: 1, From: 0, Body: "hello"}
	full := model.AppendMessage(nil, msg)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := model.ConsumeMessage(full[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(full))
		}
	}
	if _, _, err := model.ConsumeEvent([]byte{99, 0}); err == nil {
		t.Fatal("unknown event tag decoded without error")
	}
	if _, _, err := model.ConsumeInputs([]byte{1, 7}); err == nil {
		t.Fatal("invalid input value decoded without error")
	}
}
