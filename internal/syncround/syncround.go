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
//
// The package is also the round engine the synchronous and the
// partial-synchrony contrasts run on (package dls is the latter): a round
// algorithm is a pure per-process transition, an adversary is the set of
// delivery choices a round allows (Choice), and one step serves both a
// sampler and a walk — System.Sample takes one choice per round,
// System.Walk takes every choice, deduplicating configurations by key one
// round level at a time.
package syncround

import (
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/flpsim/flp/internal/model"
)

// Process is one process's state in a round algorithm. It is a value:
// Recv returns the next state and leaves its receiver as it was, so a walk
// can branch one configuration into many.
type Process interface {
	// Send returns the payload this process sends in round r (1-based) and
	// its recipients, bit q for process q.
	Send(r int) (payload any, to uint64)
	// Recv returns the state after round r, in which this process heard
	// the senders in heard (bit q for process q); payloads[q] is q's
	// payload.
	Recv(r int, heard uint64, payloads []any) Process
	// AppendKey appends the state's key to b: equal keys, equal futures.
	AppendKey(b []byte) []byte
	// Decide returns the decision, if any.
	Decide() (model.Value, bool)
}

// Algorithm builds the per-process instances.
type Algorithm interface {
	Name() string
	// Rounds returns the number of rounds to run for crash budget f.
	Rounds(n, f int) int
	// NewProcess returns process p's initial state.
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
}

// Run executes alg on n processes with inputs in under the given crash
// pattern and crash budget f: a sampler over CrashSystem that takes the
// pattern's choice each round. It refuses fewer than 2 or more than 64
// processes, a pattern with more than f victims, a victim or recipient
// outside [0, n), or a crash round outside [0, alg.Rounds(n, f)].
func Run(alg Algorithm, inputs model.Inputs, f int, cp CrashPattern) (*Result, error) {
	n := len(inputs)
	if n < 2 || n > 64 {
		return nil, fmt.Errorf("syncround: need 2 to 64 processes, got %d", n)
	}
	if err := cp.validate(n, f, alg.Rounds(n, f)); err != nil {
		return nil, err
	}
	path := CrashSystem(alg, inputs, f).Sample(cp.Choice)
	last := path[len(path)-1]
	res := &Result{Algorithm: alg.Name(), N: n, F: f, Rounds: alg.Rounds(n, f),
		Decisions: last.Decisions(), Messages: last.Messages}
	for p := range cp.Round {
		delete(res.Decisions, p) // crashed processes render no decision
	}
	res.Agreement = Agree(res.Decisions)
	return res, nil
}

// Choice is cp's choice for c's next round: the victims crashing in it,
// each reaching only its Partial set. A process crashing in round 0 is
// initially dead: it crashes in round 1 and reaches nobody.
func (cp CrashPattern) Choice(c Config) Choice {
	r := c.Round + 1
	ch := Choice{Lost: make([]uint64, len(c.Procs))}
	for p, cr := range cp.Round {
		if cr == r || cr == 0 && r == 1 {
			ch.Crash |= 1 << p
			ch.Lost[p] = ^uint64(0)
			if cr > 0 {
				for q := range cp.Partial[p] {
					ch.Lost[p] &^= 1 << q
				}
			}
		}
	}
	return ch
}

// CrashSystem is alg on inputs against the crash adversary of budget f: in
// each round any set of live processes may crash while the budget lasts,
// each one's last message reaching any subset of the survivors.
func CrashSystem(alg Algorithm, inputs model.Inputs, f int) System {
	n := len(inputs)
	init := Config{Procs: make([]Process, n), Alive: 1<<n - 1}
	for p, v := range inputs {
		init.Procs[p] = alg.NewProcess(p, n, v)
	}
	return System{Init: init, Rounds: alg.Rounds(n, f), Choices: func(c Config) []Choice {
		var out []Choice
		budget := f - (n - bits.OnesCount64(c.Alive)) // crashes left
		for crash := uint64(0); crash < 1<<n; crash++ {
			if crash&^c.Alive != 0 || bits.OnesCount64(crash) > budget {
				continue
			}
			survivors := c.Alive &^ crash
			base, may := Choice{Crash: crash, Lost: make([]uint64, n)}, make([]uint64, n)
			for p := range may {
				if crash&(1<<p) != 0 {
					base.Lost[p], may[p] = ^survivors, survivors
				}
			}
			out = append(out, Losses(base, may)...)
		}
		return out
	}}
}

// validate rejects a pattern with more than f victims, one that names a
// process outside [0, n) as a victim or a recipient, or a crash round
// outside [0, rounds].
func (cp CrashPattern) validate(n, f, rounds int) error {
	if cp.Crashes() > f {
		return fmt.Errorf("syncround: crash pattern kills %d processes, budget is %d", cp.Crashes(), f)
	}
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
