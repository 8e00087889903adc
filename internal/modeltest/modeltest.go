// Package modeltest provides reusable conformance checks that any
// model.Protocol implementation must pass: determinism, non-mutation of
// input states, and applicability of every step the harness takes. Every
// protocol package runs these against its own implementation. It also
// holds SameState, the definition of configuration equality that the
// configuration key is tested against.
package modeltest

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// EffectfulEvents enumerates the applicable events of cfg that change the
// system state (no-op null events are dropped).
func EffectfulEvents(pr model.Protocol, cfg *model.Config) []model.Event {
	var out []model.Event
	for _, e := range model.Events(cfg) {
		if e.IsNull() && model.IsNoOp(pr, cfg, e) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// SameState reports whether a and b are the same configuration by the
// paper's definition (Section 2): every process in the same internal state
// — equal State.Key() — and the same message buffer, as multisets. It
// reads no configuration key, so the tests can hold KeyBytes to it.
func SameState(a, b *model.Config) bool {
	if a.N() != b.N() || !a.Buffer().Equal(b.Buffer()) {
		return false
	}
	for p := 0; p < a.N(); p++ {
		if a.State(model.PID(p)).Key() != b.State(model.PID(p)).Key() {
			return false
		}
	}
	return true
}

// CheckConformance drives pr through a random applicable walk and verifies
// the model contract at every step: determinism (equal state and event
// yield an equal successor and identical sends), non-mutation (the source
// state's key is unchanged by Step), and harness acceptance (Apply
// succeeds, which also enforces the write-once output register).
func CheckConformance(t *testing.T, pr model.Protocol, inputs model.Inputs, steps int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := model.MustInitial(pr, inputs)
	for i := 0; i < steps; i++ {
		evs := EffectfulEvents(pr, cfg)
		if len(evs) == 0 {
			return // quiescent
		}
		e := evs[r.Intn(len(evs))]

		before := cfg.State(e.P).Key()
		s1, m1 := pr.Step(e.P, cfg.State(e.P), e.Msg)
		s2, m2 := pr.Step(e.P, cfg.State(e.P), e.Msg)
		if cfg.State(e.P).Key() != before {
			t.Fatalf("%s: Step mutated its input state (step %d, event %s)", pr.Name(), i, e)
		}
		if s1.Key() != s2.Key() {
			t.Fatalf("%s: Step is nondeterministic in state (step %d, event %s)", pr.Name(), i, e)
		}
		if len(m1) != len(m2) {
			t.Fatalf("%s: Step is nondeterministic in sends (step %d, event %s)", pr.Name(), i, e)
		}
		for j := range m1 {
			if m1[j] != m2[j] {
				t.Fatalf("%s: Step is nondeterministic in send %d (step %d)", pr.Name(), j, i)
			}
		}

		nc, err := model.Apply(pr, cfg, e)
		if err != nil {
			t.Fatalf("%s: Apply failed at step %d: %v", pr.Name(), i, err)
		}
		cfg = nc
	}
}

// StepCounter wraps a protocol so every Step bumps an atomic counter: the
// number of protocol steps an exploration paid for, whether their results
// were kept or discarded.
type StepCounter struct {
	model.Protocol
	Steps *atomic.Int64
}

// Step implements model.Protocol.
func (p StepCounter) Step(pid model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	p.Steps.Add(1)
	return p.Protocol.Step(pid, s, m)
}

// StepInto implements model.StepperInto: one counted step, in place if it can.
func (p StepCounter) StepInto(pid model.PID, dst, s model.State, m *model.Message, sends []model.Message) (model.State, []model.Message) {
	if into, ok := p.Protocol.(model.StepperInto); ok {
		p.Steps.Add(1)
		return into.StepInto(pid, dst, s, m, sends)
	}
	return p.Step(pid, s, m)
}
