package asyncnet

import (
	"math/rand"

	"github.com/flpsim/flp/internal/model"
)

// DriveOptions configure a driven execution of a Net.
type DriveOptions struct {
	// MaxSteps bounds the execution. Default 10000.
	MaxSteps int
	// Seed drives the random policy.
	Seed int64
	// RoundRobin selects the deterministic FIFO policy instead of the
	// seeded random one.
	RoundRobin bool
	// CrashAfter maps a process to the number of steps after which the
	// controller stops granting it steps (0 = never granted any).
	CrashAfter map[model.PID]int
}

// DriveResult reports a driven execution.
type DriveResult struct {
	Steps int
	// Decisions maps decided processes to their values.
	Decisions map[model.PID]model.Value
	// AllLiveDecided reports whether every non-crashed process decided.
	AllLiveDecided bool
	// AgreementViolated reports two differing decisions.
	AgreementViolated bool
	// Quiescent reports the policy ran out of useful events.
	Quiescent bool
}

// Drive runs pr on a fresh Net under the selected policy until every live
// process has decided, quiescence, or the step bound. It owns the Net's
// lifecycle (the goroutines are shut down before it returns).
func Drive(pr model.Protocol, inputs model.Inputs, opt DriveOptions) (*DriveResult, error) {
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 10000
	}
	net, err := New(pr, inputs)
	if err != nil {
		return nil, err
	}
	defer net.Close()

	for p, k := range opt.CrashAfter {
		if k == 0 {
			net.Crash(p)
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &DriveResult{Decisions: map[model.PID]model.Value{}}
	rrNext := 0

	// nullQuiet marks processes that already took a spontaneous (null)
	// step and have received nothing since: granting them further null
	// steps cannot help, because the controller cannot see inside their
	// state and every protocol here acts on its first spontaneous step.
	// This is a liveness heuristic, never a correctness condition — any
	// message delivery resets it.
	nullQuiet := make([]bool, net.N())

	for net.Steps() < opt.MaxSteps {
		if allLiveDecided(net) {
			break
		}
		p, msg, ok := pickNext(net, opt, rng, &rrNext, nullQuiet)
		if !ok {
			res.Quiescent = true
			break
		}
		if err := net.Step(p, msg); err != nil {
			return nil, err
		}
		nullQuiet[p] = msg == nil
		if k, ok := opt.CrashAfter[p]; ok && net.StepsOf(p) >= k {
			net.Crash(p)
		}
	}

	res.Steps = net.Steps()
	for p := 0; p < net.N(); p++ {
		if o := net.Output(model.PID(p)); o.Decided() {
			res.Decisions[model.PID(p)] = o.Value()
		}
	}
	res.AllLiveDecided = allLiveDecided(net)
	seen := map[model.Value]bool{}
	for _, v := range res.Decisions {
		seen[v] = true
	}
	res.AgreementViolated = len(seen) > 1
	return res, nil
}

func pickNext(net *Net, opt DriveOptions, rng *rand.Rand, rrNext *int, nullQuiet []bool) (model.PID, *model.Message, bool) {
	n := net.N()
	type candidate struct {
		p   model.PID
		msg *model.Message
	}
	var cands []candidate
	for i := 0; i < n; i++ {
		p := model.PID((*rrNext + i) % n)
		if !net.Alive(p) {
			continue
		}
		if m, ok := net.Oldest(p); ok {
			if opt.RoundRobin {
				*rrNext = (int(p) + 1) % n
				return p, &m, true
			}
			mc := m
			cands = append(cands, candidate{p, &mc})
			continue
		}
		if !nullQuiet[p] {
			if opt.RoundRobin {
				*rrNext = (int(p) + 1) % n
				return p, nil, true
			}
			cands = append(cands, candidate{p, nil})
		}
	}
	if len(cands) == 0 {
		return 0, nil, false
	}
	c := cands[rng.Intn(len(cands))]
	return c.p, c.msg, true
}

func allLiveDecided(net *Net) bool {
	any := false
	for p := 0; p < net.N(); p++ {
		if !net.Alive(model.PID(p)) {
			continue
		}
		any = true
		if !net.Output(model.PID(p)).Decided() {
			return false
		}
	}
	return any
}
