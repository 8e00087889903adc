package syncround

import (
	"github.com/flpsim/flp/internal/model"
)

// FloodSet is the classic synchronous crash-tolerant consensus algorithm:
// every process maintains the set W of input values it has seen (initially
// its own input), broadcasts W each round, unions in everything it
// receives, and after f+1 rounds decides min(W) — here, with binary values,
// 0 if 0 ∈ W and 1 otherwise.
//
// With at most f crashes, some round among the f+1 is crash-free; in that
// round every live process flushes its W to every other, after which all
// sets are equal and stay equal. Hence agreement; validity is immediate
// because W only ever contains inputs.
type FloodSet struct{}

// Name implements Algorithm.
func (FloodSet) Name() string { return "floodset" }

// Rounds implements Algorithm: f+1 rounds.
func (FloodSet) Rounds(_, f int) int { return f + 1 }

// NewProcess implements Algorithm.
func (FloodSet) NewProcess(_, _ int, input model.Value) Process {
	return floodSet(1 << input)
}

// floodSet is a FloodSet process's W: bit v is set iff v ∈ W. It is also
// the payload the process broadcasts.
type floodSet uint8

// Send implements Process: W, to everyone.
func (w floodSet) Send(int) (any, uint64) { return w, ^uint64(0) }

// Recv implements Process.
func (w floodSet) Recv(_ int, heard uint64, payloads []any) Process {
	for q, payload := range payloads {
		if heard&(1<<q) != 0 {
			w |= payload.(floodSet)
		}
	}
	return w
}

// AppendKey implements Process.
func (w floodSet) AppendKey(b []byte) []byte { return append(b, byte(w)) }

// Decide implements Process: min(W), i.e. 0 wins when both are present.
func (w floodSet) Decide() (model.Value, bool) {
	if w&1 != 0 {
		return model.V0, true
	}
	if w&2 != 0 {
		return model.V1, true
	}
	return 0, false
}

// TruncatedFloodSet is FloodSet cut to a fixed number of rounds, for the
// ablation that shows f+1 rounds are necessary: with f crashes and only f
// rounds, there are crash patterns under which survivors disagree.
type TruncatedFloodSet struct {
	// R is the number of rounds to run.
	R int
}

// Name implements Algorithm.
func (t TruncatedFloodSet) Name() string { return "floodset-truncated" }

// Rounds implements Algorithm.
func (t TruncatedFloodSet) Rounds(_, _ int) int { return t.R }

// NewProcess implements Algorithm.
func (t TruncatedFloodSet) NewProcess(p, n int, input model.Value) Process {
	return FloodSet{}.NewProcess(p, n, input)
}
