package model

import "fmt"

// State is the internal state of a single process: input register, output
// register, program counter, and internal storage. Implementations are
// provided by protocols.
//
// States must be treated as immutable values: Step must return a fresh
// State rather than mutating its argument, and callers must never modify a
// State after obtaining it. Key defines semantic equality — two states are
// equal iff their keys are equal — and therefore configuration equality and
// the soundness of valency memoization rest on Key being canonical.
type State interface {
	// Key returns a canonical encoding of the state. Equal states must
	// return identical keys and distinct states distinct keys.
	Key() string
	// Output returns the content of the process's output register y_p.
	Output() Output
}

// Protocol is a consensus protocol P: the transition functions of N
// deterministic processes plus their initial states. It corresponds exactly
// to the paper's definition in Section 2.
//
// Implementations must be deterministic and side-effect free: Step called
// twice with equal arguments must return equal results, and must not mutate
// the given state. The harness enforces the write-once output register; a
// Step that changes an already-decided register is reported as a protocol
// error by Apply.
type Protocol interface {
	// Name identifies the protocol in traces, checkers, and benchmarks.
	Name() string
	// N returns the number of processes, at least 2.
	N() int
	// Init returns the initial state of process p with input register
	// x_p = input. Initial states prescribe fixed starting values for
	// everything but the input register; the output register starts at b.
	Init(p PID, input Value) State
	// Step is the transition function. m is the delivered message, or nil
	// for the null delivery ∅ (receive returned nothing). It returns the
	// successor state and the finite set of messages sent in this step.
	// Message From fields are stamped with p by the harness; To fields
	// must name valid processes. m belongs to the caller, which may reuse
	// it after Step returns (a directed probe's message slab does), so
	// Step copies whatever of it it keeps.
	Step(p PID, s State, m *Message) (State, []Message)
}

// Inputs is an assignment of input bits to all N processes: element p is
// x_p. An initial configuration is determined by a Protocol and an Inputs
// vector.
type Inputs []Value

// MaxInputsN is the largest n whose input assignments a root loop lists.
// AllInputs holds all 2^n of them at once, about 2^n · 48 bytes: 50 MB at
// n = 20, the whole address space long before 1 << n stops counting them
// at n = 63.
const MaxInputsN = 20

// CheckInputsN refuses an n whose input assignments cannot be listed:
// below 2, which Initial refuses, or above MaxInputsN. A loop over
// AllInputs(n) for an n it has not checked may panic or come back empty.
func CheckInputsN(n int) error {
	if n < 2 || n > MaxInputsN {
		return fmt.Errorf("model: n = %d: a loop over all input assignments needs 2 ≤ n ≤ %d", n, MaxInputsN)
	}
	return nil
}

// AllInputs enumerates all 2^n input assignments for n processes, in
// lexicographic order with process 0 as the most significant bit. n must
// pass CheckInputsN.
func AllInputs(n int) []Inputs {
	total := 1 << n
	all := make([]Inputs, 0, total)
	for bits := 0; bits < total; bits++ {
		in := make(Inputs, n)
		for p := 0; p < n; p++ {
			if bits&(1<<(n-1-p)) != 0 {
				in[p] = V1
			}
		}
		all = append(all, in)
	}
	return all
}

// UniformInputs returns the assignment giving every process input v.
func UniformInputs(n int, v Value) Inputs {
	in := make(Inputs, n)
	for p := range in {
		in[p] = v
	}
	return in
}

// AlternatingInputs gives process p input p mod 2: 0,1,0,1,….
func AlternatingInputs(n int) Inputs {
	in := make(Inputs, n)
	for p := range in {
		in[p] = Value(p & 1)
	}
	return in
}

// Count returns how many processes have input v.
func (in Inputs) Count(v Value) int {
	c := 0
	for _, x := range in {
		if x == v {
			c++
		}
	}
	return c
}

// String renders the assignment as a bit string, process 0 first.
func (in Inputs) String() string {
	b := make([]byte, len(in))
	for i, v := range in {
		b[i] = '0' + byte(v)
	}
	return string(b)
}

// ParseInputs is the inverse of Inputs.String for n processes: one '0'
// or '1' per process, process 0 first, and nothing else.
func ParseInputs(s string, n int) (Inputs, error) {
	in := make(Inputs, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return nil, fmt.Errorf("inputs %q: position %d is not a bit", s, i)
		}
		in[i] = Value(s[i] - '0')
	}
	if len(in) != n {
		return nil, fmt.Errorf("inputs %q has %d values, want %d", s, len(in), n)
	}
	return in, nil
}

// AdjacentTo reports whether two input assignments differ in the input of
// exactly one process, returning that process. This is the adjacency
// relation on initial configurations used in the proof of Lemma 2.
func (in Inputs) AdjacentTo(other Inputs) (PID, bool) {
	if len(in) != len(other) {
		return 0, false
	}
	diff := -1
	for p := range in {
		if in[p] != other[p] {
			if diff >= 0 {
				return 0, false
			}
			diff = p
		}
	}
	if diff < 0 {
		return 0, false
	}
	return PID(diff), true
}
