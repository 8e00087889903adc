// Package syncround implements the synchronous-rounds model the paper
// contrasts with ("By way of contrast, solutions are known for the
// synchronous case") and the FloodSet algorithm, which solves binary
// consensus in exactly f+1 rounds in the presence of up to f crash faults.
//
// In the synchronous model computation proceeds in lock-step rounds: every
// live process broadcasts a message, all messages are delivered at the end
// of the round, and crashes are the only faults. A process that crashes
// mid-broadcast delivers its final message to an arbitrary adversary-chosen
// subset of recipients — that partial delivery is exactly what forces f+1
// rounds rather than one.
package syncround

import (
	"fmt"
	"math/rand"

	"github.com/flpsim/flp/internal/model"
)

// Process is a synchronous round-based algorithm instance for one process.
type Process interface {
	// Send returns the payload this process broadcasts in round r (1-based).
	Send(r int) string
	// Recv consumes the payloads delivered this round, keyed by sender.
	// Its own payload is included (self-delivery is reliable).
	Recv(r int, payloads map[int]string)
	// Decide returns the decision after the final round.
	Decide() (model.Value, bool)
}

// Algorithm builds the per-process instances.
type Algorithm interface {
	Name() string
	// Rounds returns the number of rounds to run for crash budget f.
	Rounds(n, f int) int
	// NewProcess returns process p's instance.
	NewProcess(p, n int, input model.Value) Process
}

// CrashPattern specifies the adversary's crash schedule.
type CrashPattern struct {
	// Round maps a process to the round (1-based) in which it crashes.
	// Processes absent from the map never crash. A process crashing in
	// round r broadcasts to only a subset of recipients in r and is dead
	// afterwards; crashing in round 0 means initially dead.
	Round map[int]int
	// Partial maps a crashing process to the recipients that still receive
	// its final-round broadcast. Processes absent deliver to nobody.
	Partial map[int]map[int]bool
}

// Crashes returns the number of processes that crash.
func (cp CrashPattern) Crashes() int { return len(cp.Round) }

// RandomCrashPattern draws a crash schedule with exactly f crash victims,
// random crash rounds in [0, rounds] and random partial-delivery sets.
func RandomCrashPattern(n, f, rounds int, r *rand.Rand) CrashPattern {
	cp := CrashPattern{Round: map[int]int{}, Partial: map[int]map[int]bool{}}
	victims := r.Perm(n)[:f]
	for _, v := range victims {
		cp.Round[v] = r.Intn(rounds + 1)
		subset := map[int]bool{}
		for q := 0; q < n; q++ {
			if q != v && r.Intn(2) == 0 {
				subset[q] = true
			}
		}
		cp.Partial[v] = subset
	}
	return cp
}

// Result reports one synchronous execution.
type Result struct {
	Algorithm string
	N, F      int
	Rounds    int
	// Decisions maps each process that survived to the end to its
	// decision.
	Decisions map[int]model.Value
	// Agreement reports whether all survivors decided identically.
	Agreement bool
	// Messages is the total number of point-to-point deliveries.
	Messages int
	// Procs exposes the process instances after the run, so callers can
	// query algorithm-specific interfaces (e.g. EarlyDecider).
	Procs []Process
}

// DecidedValue returns the survivors' common decision.
func (r *Result) DecidedValue() (model.Value, bool) {
	seen := map[model.Value]bool{}
	for _, v := range r.Decisions {
		seen[v] = true
	}
	if len(seen) == 1 {
		for v := range seen {
			return v, true
		}
	}
	return 0, false
}

// Run executes alg on n processes with inputs in under the given crash
// pattern and crash budget f. It refuses a pattern with more than f
// victims, a victim or recipient outside [0, n), or a crash round outside
// [0, alg.Rounds(n, f)].
func Run(alg Algorithm, inputs model.Inputs, f int, cp CrashPattern) (*Result, error) {
	n := len(inputs)
	if n < 2 {
		return nil, fmt.Errorf("syncround: need at least 2 processes, got %d", n)
	}
	if cp.Crashes() > f {
		return nil, fmt.Errorf("syncround: crash pattern kills %d processes, budget is %d", cp.Crashes(), f)
	}
	rounds := alg.Rounds(n, f)
	if err := cp.validate(n, rounds); err != nil {
		return nil, err
	}
	procs := make([]Process, n)
	for p := 0; p < n; p++ {
		procs[p] = alg.NewProcess(p, n, inputs[p])
	}

	res := &Result{Algorithm: alg.Name(), N: n, F: f, Rounds: rounds, Decisions: map[int]model.Value{}, Procs: procs}

	for r := 1; r <= rounds; r++ {
		// Gather each sender's payload and recipient set.
		delivered := make([]map[int]string, n)
		for p := 0; p < n; p++ {
			delivered[p] = map[int]string{}
		}
		for p := 0; p < n; p++ {
			cr, crashes := cp.Round[p]
			if crashes && r > cr {
				continue // already dead
			}
			if crashes && r == cr {
				if cr == 0 {
					continue // initially dead: never sent anything
				}
				// Final partial broadcast, recipients chosen by the
				// adversary.
				payload := procs[p].Send(r)
				for q := range cp.Partial[p] {
					delivered[q][p] = payload
					res.Messages++
				}
				continue
			}
			payload := procs[p].Send(r)
			for q := 0; q < n; q++ {
				delivered[q][p] = payload
				res.Messages++
			}
		}
		// Processes that have crashed by round r no longer process input.
		for p := 0; p < n; p++ {
			if isCrashedBy(cp, p, r) {
				continue
			}
			procs[p].Recv(r, delivered[p])
		}
	}

	for p := 0; p < n; p++ {
		if _, crashes := cp.Round[p]; crashes {
			continue // crashed processes render no decision
		}
		if v, ok := procs[p].Decide(); ok {
			res.Decisions[p] = v
		}
	}
	seen := map[model.Value]bool{}
	for _, v := range res.Decisions {
		seen[v] = true
	}
	res.Agreement = len(seen) <= 1
	return res, nil
}

// validate rejects a pattern that names a process outside [0, n) as a
// victim or a recipient, or a crash round outside [0, rounds].
func (cp CrashPattern) validate(n, rounds int) error {
	for p, r := range cp.Round {
		if p < 0 || p >= n {
			return fmt.Errorf("syncround: crash victim %d is not a process (n=%d)", p, n)
		}
		if r < 0 || r > rounds {
			return fmt.Errorf("syncround: process %d crashes in round %d, outside [0, %d]", p, r, rounds)
		}
	}
	for p, to := range cp.Partial {
		if p < 0 || p >= n {
			return fmt.Errorf("syncround: crash victim %d is not a process (n=%d)", p, n)
		}
		for q := range to {
			if q < 0 || q >= n {
				return fmt.Errorf("syncround: process %d's final broadcast reaches %d, not a process (n=%d)", p, q, n)
			}
		}
	}
	return nil
}

// isCrashedBy reports whether p has crashed in round r or earlier.
func isCrashedBy(cp CrashPattern, p, r int) bool {
	cr, crashes := cp.Round[p]
	return crashes && r >= cr
}
