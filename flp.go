// Package flp is an executable reproduction of Fischer, Lynch, and
// Paterson, "Impossibility of Distributed Consensus with One Faulty
// Process" (JACM 32(2), 1985): the paper's asynchronous system model as a
// programmable harness, a model checker for its lemmas, the Theorem 1
// adversary that constructs admissible non-deciding runs against any
// consensus protocol, the Section 4 initially-dead-processes protocol, and
// the contrast systems the paper cites (synchronous FloodSet, Byzantine
// Generals OM(m), Ben-Or randomization, DLS partial synchrony).
//
// # The model
//
// Implement [Protocol] to define a consensus protocol: deterministic
// processes with one-bit input registers, write-once output registers, and
// a transition function from (state, delivered message or nil) to (state,
// sent messages). The harness provides configurations, events e = (p, m),
// schedules, and the nondeterministic message buffer exactly as in Section
// 2 of the paper.
//
// # Checking
//
//   - [Classify] computes a configuration's valency (0-valent, 1-valent,
//     bivalent) with concrete witness schedules.
//   - [CensusInitial] mechanizes Lemma 2 over all initial configurations.
//   - [CensusLemma3] mechanizes Lemma 3's frontier argument.
//   - [CheckPartialCorrectness] verifies agreement and nontriviality.
//
// # The adversary
//
// [NewAdversary] builds the Theorem 1 scheduler. Against any bivalent
// protocol it extends a run stage by stage — rotating process queue,
// earliest message first, every stage ending bivalent — so no process ever
// decides while every process keeps taking steps: the impossibility,
// constructively.
//
// # Running
//
// [Run] executes a protocol under a pluggable scheduler ([RandomFair],
// [NewRoundRobin], [Delayed]) with crash injection, and [RunMany]
// aggregates ensembles across seeds.
//
// The bundled protocols ([NewPaxosSynod], [NewTwoPhaseCommit],
// [NewBenOr], [NewInitiallyDead], ...) cover every corner of the paper's
// definitions; see the examples directory and DESIGN.md for the map.
package flp

import (
	"github.com/flpsim/flp/internal/model"
)

// Core model types, re-exported verbatim from the internal model package.
type (
	// PID identifies a process, 0..N-1.
	PID = model.PID
	// Value is a binary consensus value.
	Value = model.Value
	// Output is the content of a write-once output register y_p.
	Output = model.Output
	// Message is a buffered message (destination, sender, body).
	Message = model.Message
	// State is a process's immutable internal state.
	State = model.State
	// Protocol is a consensus protocol: N deterministic transition
	// functions plus initial states.
	Protocol = model.Protocol
	// Inputs assigns an input bit to every process.
	Inputs = model.Inputs
	// Config is a configuration: all process states plus the buffer.
	Config = model.Config
	// Event is e = (p, m); a nil message is the null delivery.
	Event = model.Event
	// Schedule is a finite sequence of events.
	Schedule = model.Schedule
)

// Consensus values and output register contents.
const (
	V0       = model.V0
	V1       = model.V1
	None     = model.None
	Decided0 = model.Decided0
	Decided1 = model.Decided1
)

// Initial returns the initial configuration of pr for the given inputs.
func Initial(pr Protocol, in Inputs) (*Config, error) { return model.Initial(pr, in) }

// Apply performs one step: the receipt of e.Msg (or nothing) by e.P.
func Apply(pr Protocol, c *Config, e Event) (*Config, error) { return model.Apply(pr, c, e) }

// ApplySchedule applies a schedule σ to c, returning σ(c).
func ApplySchedule(pr Protocol, c *Config, sigma Schedule) (*Config, error) {
	return model.ApplySchedule(pr, c, sigma)
}

// AllInputs enumerates all 2^n input assignments. n must lie in
// [2, 20], the bound every root loop checks before it lists them.
func AllInputs(n int) []Inputs { return model.AllInputs(n) }

// UniformInputs assigns v to every process.
func UniformInputs(n int, v Value) Inputs { return model.UniformInputs(n, v) }

// Broadcast addresses one copy of body from p to every process.
func Broadcast(from PID, n int, body string) []Message {
	return model.AppendBroadcast(nil, from, n, body)
}

// BroadcastOthers is Broadcast without the self-copy.
func BroadcastOthers(from PID, n int, body string) []Message {
	return model.AppendBroadcastOthers(nil, from, n, body)
}

// NullEvent returns (p, ∅).
func NullEvent(p PID) Event { return model.NullEvent(p) }

// Deliver returns the delivery event for m.
func Deliver(m Message) Event { return model.Deliver(m) }

// OutputOf converts a consensus value to its register content.
func OutputOf(v Value) Output { return model.OutputOf(v) }
