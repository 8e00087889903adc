package protogen_test

import (
	"fmt"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// started returns process 0's state after its first step and then one
// delivery from process 1 of each body.
func started(pr model.Protocol, bodies ...string) model.State {
	s, _ := pr.Step(0, pr.Init(0, model.V0), nil)
	for _, body := range bodies {
		s, _ = pr.Step(0, s, &model.Message{To: 0, From: 1, Body: body})
	}
	return s
}

// A generated Ben-Or records exactly the bodies the protocol writes, and a
// delivery of anything else is consumed without a trace. So is every
// delivery to a process past its last round: the halt absorbs.
func TestBenorBodies(t *testing.T) {
	derived := build(t, protogen.Derive(10, protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2}))
	// Every threshold 1 and a single round: one report and one proposal
	// from a peer carry process 0 through its only round.
	capped := build(t, protogen.Spec{V: protogen.SpecVersion, Template: protogen.TemplateBenOr, N: 3,
		MaxRound: 1, WaitNeed: 1, ProposeNeed: 1, DecideNeed: 1})
	halted := started(capped, "R|1|0", "P|1|0")
	if halted.Output() != model.Decided0 {
		t.Fatalf("capped Ben-Or did not decide 0 in its only round: %q", halted.Key())
	}
	for _, tc := range []struct {
		name     string
		pr       model.Protocol
		s        model.State
		accepted []string
		rejected []string
	}{
		{"derived", derived, started(derived),
			[]string{"R|1|0", "R|2|1", "P|1|0", "P|1|2", "P|8|1"},
			[]string{"R|1|2", "P|1|3", "E|1|0", "R|1|0 ", "R|1|0|1", "R|1|", "R||0", "R|x|0", "R|-1|0", "R|+1|0",
				"R|01|0", "R|1|10", "R|1|a", "RR|1|0", "R 1 0", "R|1234567890|0", "", "g0"}},
		{"halted", capped, halted, nil,
			[]string{"R|1|0", "R|1|1", "R|2|1", "P|1|0", "P|1|2", "P|2|1"}},
	} {
		deliver := func(body string) string {
			ns, sends := tc.pr.Step(0, tc.s, &model.Message{To: 0, From: 1, Body: body})
			return fmt.Sprint(ns.Key(), sends)
		}
		idle := fmt.Sprint(tc.s.Key(), []model.Message(nil))
		for _, body := range tc.accepted {
			if deliver(body) == idle {
				t.Errorf("%s: delivery of %q was ignored", tc.name, body)
			}
		}
		for _, body := range tc.rejected {
			if got := deliver(body); got != idle {
				t.Errorf("%s: delivery of %q changed the state: %s", tc.name, body, got)
			}
		}
	}
	if ns, sends := capped.Step(0, halted, nil); ns.Key() != halted.Key() || len(sends) != 0 {
		t.Errorf("halted: a null step gave %q and sent %v", ns.Key(), sends)
	}
}

// A state's inbox and vote sets are shared with its successors and never
// written: two deliveries to one state leave it alone and differ from each
// other.
func TestBenorStateChildrenIndependent(t *testing.T) {
	pr := build(t, protogen.Derive(10, protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2}))
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
