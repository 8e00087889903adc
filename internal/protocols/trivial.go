package protocols

import (
	"fmt"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// Trivial0 is the protocol the paper rules out by the nontriviality
// stipulation: every process decides 0 on its first step regardless of
// inputs. It satisfies agreement and terminates in every run, but only 0 is
// ever a decision value, so it is not partially correct (condition 2
// fails). Useful as a checker fixture.
type Trivial0 struct {
	// Procs is the number of processes N ≥ 2.
	Procs int
}

type trivialState struct {
	out model.Output
}

func (s trivialState) Key() string { return string(enc.AppendInt(nil, int(s.out))) }

func (s trivialState) Output() model.Output { return s.out }

// NewTrivial0 returns the always-0 protocol for n processes.
func NewTrivial0(n int) *Trivial0 { return &Trivial0{Procs: n} }

// Name implements model.Protocol.
func (t *Trivial0) Name() string { return fmt.Sprintf("trivial0(n=%d)", t.Procs) }

// N implements model.Protocol.
func (t *Trivial0) N() int { return t.Procs }

// Init implements model.Protocol.
func (t *Trivial0) Init(model.PID, model.Value) model.State {
	return trivialState{out: model.None}
}

// Step implements model.Protocol: decide 0 on the first step, then idle.
func (t *Trivial0) Step(_ model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	st := s.(trivialState)
	if !st.out.Decided() {
		return trivialState{out: model.Decided0}, nil
	}
	return st, nil
}
