package failuredetector

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

// Options configure one run of the rotating-coordinator consensus.
type Options struct {
	// N is the number of processes; F the crash budget (F < N/2).
	N, F int
	// Detector is the failure-detector oracle.
	Detector Detector
	// Lag is how many ticks a coordinator's proposal takes to arrive —
	// the asynchrony the detector races against. Must be ≥ 1.
	Lag int
	// MaxTicks bounds the execution.
	MaxTicks int
	// CrashTick maps a process to the tick at which it crash-stops
	// (0 = initially dead).
	CrashTick map[int]int
}

func (o Options) validate() error {
	if o.N < 2 {
		return fmt.Errorf("failuredetector: need N ≥ 2, got %d", o.N)
	}
	if o.F < 0 || 2*o.F >= o.N {
		return fmt.Errorf("failuredetector: need 0 ≤ F < N/2, got F=%d N=%d", o.F, o.N)
	}
	if len(o.CrashTick) > o.F {
		return fmt.Errorf("failuredetector: %d crashes exceed budget F=%d", len(o.CrashTick), o.F)
	}
	for p := range o.CrashTick {
		if p < 0 || p >= o.N {
			return fmt.Errorf("failuredetector: crash victim %d is not a process (N=%d)", p, o.N)
		}
	}
	if o.Detector == nil {
		return fmt.Errorf("failuredetector: no detector")
	}
	if o.Lag < 1 {
		return fmt.Errorf("failuredetector: Lag must be ≥ 1, got %d", o.Lag)
	}
	return nil
}

// Result reports one execution.
type Result struct {
	// Decisions maps decided processes to values.
	Decisions map[int]model.Value
	// DecisionRound is the round in which the deciding proposal was made.
	DecisionRound int
	// Rounds counts coordinator rounds attempted; Ticks counts global
	// time.
	Rounds, Ticks int
	// Agreement reports a single decision value.
	Agreement bool
	// SkippedRounds counts rounds abandoned on suspicion.
	SkippedRounds int
}

// AllLiveDecided reports whether every non-crashed process decided.
func (r *Result) AllLiveDecided(opt Options) bool {
	for p := 0; p < opt.N; p++ {
		if _, crashed := opt.CrashTick[p]; crashed {
			continue
		}
		if _, ok := r.Decisions[p]; !ok {
			return false
		}
	}
	return true
}

type proc struct {
	estimate model.Value
	ts       int // round of last adoption
	decided  bool
	decision model.Value
}

// Run executes the Chandra-Toueg-style rotating-coordinator consensus: in
// round r, coordinator c = r mod N gathers ≥ N-F estimates, proposes the
// one with the highest adoption round, and every process waits for that
// proposal — delivery takes Lag ticks — unless its detector makes it
// suspect c first, in which case it abandons the round. A proposal
// acknowledged by ≥ N-F processes is decided and the decision is relayed
// reliably. Safety never consults the detector; liveness is exactly as
// good as its suspicions.
func Run(opt Options, inputs model.Inputs) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(inputs) != opt.N {
		return nil, fmt.Errorf("failuredetector: %d inputs for N=%d", len(inputs), opt.N)
	}
	if opt.MaxTicks <= 0 {
		opt.MaxTicks = 10000
	}
	procs := make([]proc, opt.N)
	for p := range procs {
		procs[p] = proc{estimate: inputs[p], ts: -1}
	}
	res := &Result{Decisions: map[int]model.Value{}, DecisionRound: -1}

	alive := func(p, tick int) bool {
		ct, crashed := opt.CrashTick[p]
		return !crashed || tick < ct
	}

	tick := 0
	round := 0
	for tick < opt.MaxTicks {
		res.Rounds = round + 1
		c := round % opt.N
		roundStart := tick

		// The coordinator assembles its proposal from ≥ N-F estimates
		// (reliable delivery from live senders; with ≤ F crashes the
		// quorum is always available while c is alive).
		proposalValid := false
		var proposal model.Value
		if alive(c, tick) {
			bestTS, count := -2, 0
			for p := 0; p < opt.N; p++ {
				if !alive(p, tick) {
					continue
				}
				count++
				if procs[p].ts > bestTS {
					bestTS = procs[p].ts
					proposal = procs[p].estimate
				}
			}
			proposalValid = count >= opt.N-opt.F
		}

		// Each live process waits for the proposal (arriving Lag ticks
		// after the round starts) or abandons on suspicion of c.
		acked := map[int]bool{}
		nacked := map[int]bool{}
		for tick < opt.MaxTicks {
			tick++
			arrived := proposalValid && alive(c, roundStart) && tick >= roundStart+opt.Lag
			for p := 0; p < opt.N; p++ {
				if !alive(p, tick) || acked[p] || nacked[p] {
					continue
				}
				switch {
				case arrived:
					procs[p].estimate = proposal
					procs[p].ts = round
					acked[p] = true
				case opt.Detector.Suspects(p, c, tick, !alive(c, tick)):
					nacked[p] = true
				}
			}
			done := true
			for p := 0; p < opt.N; p++ {
				if alive(p, tick) && !acked[p] && !nacked[p] {
					done = false
					break
				}
			}
			if done {
				break
			}
		}

		if len(acked) >= opt.N-opt.F {
			// Decide and relay reliably to every live process.
			tick++
			for p := 0; p < opt.N; p++ {
				if alive(p, tick) && !procs[p].decided {
					procs[p].decided = true
					procs[p].decision = proposal
					res.Decisions[p] = proposal
				}
			}
			res.DecisionRound = round
			break
		}
		if len(acked) == 0 {
			res.SkippedRounds++
		}
		round++
	}

	res.Ticks = tick
	res.Agreement = syncround.Agree(res.Decisions)
	return res, nil
}
