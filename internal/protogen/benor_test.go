package protogen

import (
	"fmt"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// The generated Ben-Or accepts exactly the bodies benorBody writes, and a
// delivery of anything else is consumed without a trace.
func TestBenorBodies(t *testing.T) {
	sp := Derive(10, Dials{Template: TemplateBenOr, N: 3, MaxRound: 2})
	pr, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	started, _ := pr.Step(0, pr.Init(0, model.V0), nil)
	deliver := func(body string) string {
		ns, sends := pr.Step(0, started, &model.Message{To: 0, From: 1, Body: body})
		return fmt.Sprint(ns.Key(), sends)
	}
	idle := fmt.Sprint(started.Key(), []model.Message(nil))
	for _, body := range []string{"R|1|0", "R|2|1", "P|1|0", "P|1|2", "P|8|1"} {
		kind, r, v, ok := parseBenorBody(body)
		if !ok || benorBody(kind, r, v) != body {
			t.Errorf("parseBenorBody(%q) = (%c, %d, %d, %v)", body, kind, r, v, ok)
		}
		if deliver(body) == idle {
			t.Errorf("delivery of %q was ignored", body)
		}
	}
	for _, body := range []string{
		"R|1|2", "P|1|3", "E|1|0", "R|1|0 ", "R|1|0|1", "R|1|", "R||0", "R|x|0", "R|-1|0", "R|+1|0",
		"R|01|0", "R|1|10", "R|1|a", "RR|1|0", "R 1 0", "R|1234567890|0", "", "g0",
	} {
		if _, _, _, ok := parseBenorBody(body); ok {
			t.Errorf("parseBenorBody(%q) accepted", body)
		}
		if got := deliver(body); got != idle {
			t.Errorf("delivery of malformed %q changed the state: %s", body, got)
		}
	}
}

// A state's inbox and vote sets are shared with its successors and never
// written: two deliveries to one state leave it alone and differ from each
// other.
func TestBenorStateChildrenIndependent(t *testing.T) {
	sp := Derive(10, Dials{Template: TemplateBenOr, N: 3, MaxRound: 2})
	pr, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := pr.Step(0, pr.Init(0, model.V1), nil)
	s, _ = pr.Step(0, s, &model.Message{To: 0, From: 2, Body: "P|1|2"})
	key := s.Key()
	a, _ := pr.Step(0, s, &model.Message{To: 0, From: 1, Body: "P|1|2"})
	b, _ := pr.Step(0, s, &model.Message{To: 0, From: 1, Body: "R|2|0"})
	aKey := a.Key()
	pr.Step(0, a, &model.Message{To: 0, From: 0, Body: "R|2|1"}) // a grandchild
	if s.Key() != key || a.Key() != aKey || a.Key() == b.Key() || a.Key() == key {
		t.Errorf("parent %q→%q, children %q→%q and %q", key, s.Key(), aKey, a.Key(), b.Key())
	}
}
