package protocols_test

import (
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestStepIntoMatchesStep holds Paxos's in-place step to Step on every
// (state, event) pair of budgeted explorations of paxos(3) and capped
// paxos(3), from every input vector. Each StepInto writes into a dirty dst
// — the successor the pair before produced, a state of another
// configuration's step — and appends to that pair's sends buffer, and must
// give the same key, output and sends as Step while the state it read
// keeps its key.
func TestStepIntoMatchesStep(t *testing.T) {
	for _, px := range []*protocols.PaxosSynod{protocols.NewPaxosSynod(3), protocols.NewBoundedPaxosSynod(3, 1)} {
		var dst model.State
		var sends []model.Message
		pairs := 0
		for _, inputs := range model.AllInputs(3) {
			c0 := model.MustInitial(px, inputs)
			explore.Explore(px, c0, explore.Options{MaxConfigs: 300, Workers: 1}, nil,
				func(c *model.Config, _ int, _ func() model.Schedule) bool {
					for _, e := range model.Events(c) {
						s := c.State(e.P)
						key := s.Key()
						want, wantSends := px.Step(e.P, s, e.Msg)
						var got model.State
						got, sends = px.StepInto(e.P, dst, s, e.Msg, sends)
						if dst != nil && got != dst {
							t.Fatalf("%s %s: StepInto did not write into the dst it was given", px.Name(), e)
						}
						if got.Key() != want.Key() || got.Output() != want.Output() {
							t.Fatalf("%s %s: StepInto gave state %q (output %v), Step %q (%v)",
								px.Name(), e, got.Key(), got.Output(), want.Key(), want.Output())
						}
						if !slices.Equal(sends, wantSends) {
							t.Fatalf("%s %s: StepInto sent %v, Step %v", px.Name(), e, sends, wantSends)
						}
						if s.Key() != key {
							t.Fatalf("%s %s: StepInto changed the state it read from %q to %q", px.Name(), e, key, s.Key())
						}
						dst = got
						pairs++
					}
					return false
				})
		}
		if pairs < 1000 {
			t.Fatalf("%s: only %d (state, event) pairs checked", px.Name(), pairs)
		}
		t.Logf("%s: %d (state, event) pairs", px.Name(), pairs)
	}
}
