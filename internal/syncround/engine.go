package syncround

import (
	"math/bits"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// Config is a configuration of a round system: the rounds run so far, the
// deliveries made so far, every process's state, and the live processes
// (bit p for process p). A crashed process keeps the state it crashed in.
type Config struct {
	Round, Messages int
	Procs           []Process
	Alive           uint64
}

// Choice is the adversary's decision for one round. The processes in Crash
// send their last message and take no step. Lost[p] holds the recipients
// that miss p's message (a nil Lost loses nothing); a process that
// survives the round always hears itself.
type Choice struct {
	Crash uint64
	Lost  []uint64
}

// step runs round c.Round+1 of c under ch. It is the one transition
// System.Sample (one choice per round) and System.Walk (every choice)
// both take.
func step(c Config, ch Choice) Config {
	n, r := len(c.Procs), c.Round+1
	next := Config{Round: r, Messages: c.Messages, Procs: append([]Process(nil), c.Procs...), Alive: c.Alive &^ ch.Crash}
	payloads, heard := make([]any, n), [64]uint64{}
	for p, pr := range c.Procs {
		if c.Alive&(1<<p) == 0 {
			continue
		}
		payload, to := pr.Send(r)
		got := to & (1<<n - 1)
		if ch.Lost != nil {
			got &^= ch.Lost[p]
		}
		got |= to & next.Alive & (1 << p) // a survivor always hears itself
		payloads[p] = payload
		next.Messages += bits.OnesCount64(got)
		for q := range n {
			if got&(1<<q) != 0 {
				heard[q] |= 1 << p
			}
		}
	}
	for q, pr := range c.Procs {
		if next.Alive&(1<<q) != 0 {
			next.Procs[q] = pr.Recv(r, heard[q], payloads)
		}
	}
	return next
}

// AppendKey appends c's key to b: the live set and every live process's
// state. Two configurations of one round with equal keys have equal
// futures.
func (c Config) AppendKey(b []byte) []byte {
	b = enc.AppendInt(b, int(c.Alive))
	for p, pr := range c.Procs {
		if c.Alive&(1<<p) != 0 {
			b = pr.AppendKey(b)
		}
	}
	return b
}

// Decisions returns the live processes' decisions in c.
func (c Config) Decisions() map[int]model.Value {
	d := map[int]model.Value{}
	for p, pr := range c.Procs {
		if v, ok := pr.Decide(); ok && c.Alive&(1<<p) != 0 {
			d[p] = v
		}
	}
	return d
}

// Agree reports whether decisions carry at most one value.
func Agree(decisions map[int]model.Value) bool {
	seen := map[model.Value]bool{}
	for _, v := range decisions {
		seen[v] = true
	}
	return len(seen) <= 1
}

// System is a round algorithm started from one configuration and run
// against an adversary.
type System struct {
	Init Config
	// Rounds bounds the run.
	Rounds int
	// Done reports a configuration that runs no further; nil stops only
	// at the bound.
	Done func(Config) bool
	// Choices lists every choice the adversary has in c's next round.
	Choices func(c Config) []Choice
}

func (s System) stops(c Config) bool {
	return c.Round >= s.Rounds || s.Done != nil && s.Done(c)
}

// Sample runs s taking the choice choose makes in each round and returns
// every configuration it passes, s.Init first.
func (s System) Sample(choose func(Config) Choice) []Config {
	path := []Config{s.Init}
	for c := s.Init; !s.stops(c); path = append(path, c) {
		c = step(c, choose(c))
	}
	return path
}

// Node is a configuration a walk kept, with the choice that led to it
// from Parent.
type Node struct {
	Config
	Parent *Node
	Choice Choice
}

// Walk takes every choice s allows, one round level at a time, and keeps
// the first configuration it reaches for each key of a level. It calls
// visit on every configuration it keeps, s.Init first, and stops when
// visit returns false. It returns the configurations kept and the choices
// taken.
func (s System) Walk(visit func(*Node) bool) (states, edges int) {
	var key []byte
	for level := []*Node{{Config: s.Init}}; len(level) > 0; {
		var next []*Node
		seen := map[string]bool{}
		for _, nd := range level {
			if states++; !visit(nd) {
				return states, edges
			}
			if s.stops(nd.Config) {
				continue
			}
			for _, ch := range s.Choices(nd.Config) {
				edges++
				succ := step(nd.Config, ch)
				if key = succ.AppendKey(key[:0]); !seen[string(key)] {
					seen[string(key)] = true
					next = append(next, &Node{succ, nd, ch})
				}
			}
		}
		level = next
	}
	return states, edges
}

// Losses returns base with every combination of further losses: for each
// sender p, every subset of may[p] added to base.Lost[p], which must have
// an entry per process.
func Losses(base Choice, may []uint64) []Choice {
	out := []Choice{base}
	for p, m := range may {
		for i, n := 0, len(out); i < n; i++ {
			for sub := m; sub != 0; sub = (sub - 1) & m {
				ch := Choice{Crash: out[i].Crash, Lost: append([]uint64(nil), out[i].Lost...)}
				ch.Lost[p] |= sub
				out = append(out, ch)
			}
		}
	}
	return out
}
