package protocols_test

import (
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestAllocsPaxosStep pins what a Paxos step costs on the deliveries the
// adversary's probes take most: the successor state, one sends slice and
// the body string, whether the step answers one proposer or broadcasts to
// all. Before handle appended into Step's slice and the broadcast helpers
// appended in place, a broadcasting step built three slices.
func TestAllocsPaxosStep(t *testing.T) {
	px := protocols.NewPaxosSynod(3)
	s, _ := px.Step(1, px.Init(1, model.V0), nil) // past the first step's own Prepare
	for _, tc := range []struct {
		name  string
		m     model.Message
		sends int
	}{
		{"prepare→promise", model.Message{To: 1, From: 0, Body: "prep|0"}, 1},
		{"accept→accepted broadcast", model.Message{To: 1, From: 0, Body: "acc|3|1"}, 3},
	} {
		ns, sends := px.Step(1, s, &tc.m)
		if ns == nil || len(sends) != tc.sends {
			t.Fatalf("%s: %d sends, want %d", tc.name, len(sends), tc.sends)
		}
		if got := testing.AllocsPerRun(100, func() { px.Step(1, s, &tc.m) }); got != 3 {
			t.Errorf("%s: %.0f allocations, want 3 (state, sends, body)", tc.name, got)
		}
	}
}
