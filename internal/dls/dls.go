// Package dls implements a partial-synchrony consensus in the style of
// Dwork, Lynch, and Stockmeyer ("Consensus in the presence of partial
// synchrony", PODC 1984 — reference [10], one of the two escape routes the
// paper's conclusion points to). The system alternates rounds; before an
// unknown Global Stabilization Time (GST) the adversary may drop any
// message between two processes, after it every message between live
// processes is delivered. A process's message to itself always arrives.
//
// The algorithm is a rotating-coordinator commit protocol with Paxos-style
// locks (safe under full asynchrony with f < N/2 crash faults, live once
// rounds become synchronous):
//
//	round r, coordinator c = r mod N:
//	 1. every process reports (estimate, lockRound) to c;
//	 2. on ≥ N-f reports, c proposes the estimate with the highest
//	    lockRound (its own estimate if none is locked);
//	 3. a process receiving propose(r, v) locks (v, r), adopts v, acks;
//	 4. on ≥ N-f acks, c broadcasts decide(v); receivers decide.
//
// Quorum intersection gives agreement: once N-f processes lock v at round
// r, every later coordinator's report quorum contains a lock ≥ r, so only
// v can ever again be proposed. Before GST the adversary can starve every
// quorum, and the protocol — like every protocol, by Theorem 1 — simply
// does not terminate; after GST it decides within one rotation of live
// coordinators.
//
// The package holds the algorithm and its adversaries; it runs on the
// syncround round engine, one engine round per sub-round.
package dls

import (
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

// Options configure one partial-synchrony execution.
type Options struct {
	// N is the number of processes; F the crash budget (F < N/2).
	N, F int
	// GST is the first synchronous round (1-based). Rounds before it are
	// under the adversary's control.
	GST int
	// MaxRounds bounds the execution.
	MaxRounds int
	// DropProb is the probability an individual pre-GST message between
	// two processes is dropped; a process's message to itself always
	// arrives. 1.0 models the fully hostile adversary.
	DropProb float64
	// Seed drives the pre-GST adversary.
	Seed int64
	// CrashRound maps a process to the round at the start of which it
	// crashes (1-based; 0 = initially dead).
	CrashRound map[int]int
}

func (o Options) validate() error {
	if o.N < 2 || o.N > 64 {
		return fmt.Errorf("dls: need 2 ≤ N ≤ 64, got %d", o.N)
	}
	if o.F < 0 || 2*o.F >= o.N {
		return fmt.Errorf("dls: need 0 ≤ F < N/2, got F=%d N=%d", o.F, o.N)
	}
	if len(o.CrashRound) > o.F {
		return fmt.Errorf("dls: %d crashes exceed budget F=%d", len(o.CrashRound), o.F)
	}
	for p, r := range o.CrashRound {
		if p < 0 || p >= o.N || r < 0 {
			return fmt.Errorf("dls: crash of process %d in round %d: need a process in [0, %d) and a round ≥ 0", p, r, o.N)
		}
	}
	if o.GST < 1 {
		return fmt.Errorf("dls: GST must be ≥ 1, got %d", o.GST)
	}
	if !(o.DropProb >= 0 && o.DropProb <= 1) {
		return fmt.Errorf("dls: DropProb must lie in [0, 1], got %v", o.DropProb)
	}
	return nil
}

// Result reports one execution.
type Result struct {
	// Decisions maps decided processes to their value.
	Decisions map[int]model.Value
	// DecisionRound maps decided processes to the round they decided in.
	DecisionRound map[int]int
	// FirstDecisionRound is the earliest decision round, 0 if none.
	FirstDecisionRound int
	// Rounds is the number of rounds executed.
	Rounds int
	// Agreement reports whether all decisions carry one value.
	Agreement bool
}

// AllLiveDecided reports whether every non-crashed process decided.
func (r *Result) AllLiveDecided(opt Options) bool {
	for p := 0; p < opt.N; p++ {
		if _, crashed := opt.CrashRound[p]; crashed {
			continue
		}
		if _, ok := r.Decisions[p]; !ok {
			return false
		}
	}
	return true
}

// Run executes the protocol from the given inputs: a sampler over System
// taking Drops' choices.
func Run(opt Options, inputs model.Inputs) (*Result, error) {
	s, err := System(opt, inputs)
	if err != nil {
		return nil, err
	}
	path := s.Sample(opt.Drops())
	res := &Result{Decisions: map[int]model.Value{}, DecisionRound: map[int]int{}, Rounds: (len(path) - 1) / 4}
	for t, c := range path {
		for p, pr := range c.Procs {
			if v, ok := pr.Decide(); ok && res.DecisionRound[p] == 0 {
				res.Decisions[p], res.DecisionRound[p] = v, (t+3)/4
				if res.FirstDecisionRound == 0 {
					res.FirstDecisionRound = (t + 3) / 4
				}
			}
		}
	}
	res.Agreement = syncround.Agree(res.Decisions)
	return res, nil
}

// System is the protocol on inputs as a round system: engine round t is
// sub-round (t-1) mod 4 of protocol round ⌈t/4⌉ — reports, proposal, acks,
// decide. Its adversary crashes the processes CrashRound names at the start
// of their rounds and, before GST, may lose any message between two
// processes. It stops once every process alive in the next round has
// decided, or after MaxRounds (default GST + 2N) rounds.
func System(opt Options, inputs model.Inputs) (syncround.System, error) {
	if err := opt.validate(); err != nil {
		return syncround.System{}, err
	}
	if len(inputs) != opt.N {
		return syncround.System{}, fmt.Errorf("dls: %d inputs for N=%d", len(inputs), opt.N)
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = opt.GST + 2*opt.N
	}
	init := syncround.Config{Procs: make([]syncround.Process, opt.N), Alive: 1<<opt.N - 1}
	for p, v := range inputs {
		init.Procs[p] = &proc{id: p, n: opt.N, f: opt.F, est: v}
	}
	return syncround.System{Init: init, Rounds: 4 * opt.MaxRounds, Done: opt.done, Choices: opt.choices}, nil
}

func (o Options) alive(p, r int) bool {
	cr, crashed := o.CrashRound[p]
	return !crashed || r < cr
}

// done reports a configuration at the end of a round in which every
// process alive in the next round has decided.
func (o Options) done(c syncround.Config) bool {
	if c.Round%4 != 0 {
		return false
	}
	for p, pr := range c.Procs {
		if _, ok := pr.Decide(); !ok && o.alive(p, c.Round/4+1) {
			return false
		}
	}
	return true
}

// crashes is CrashRound in engine rounds: a process crashes in the first
// sub-round of its crash round and reaches nobody.
func (o Options) crashes() syncround.CrashPattern {
	cp := syncround.CrashPattern{Round: map[int]int{}}
	for p, r := range o.CrashRound {
		cp.Round[p] = 4*max(r, 1) - 3
	}
	return cp
}

// choices lists the adversary's choices for c's next sub-round.
func (o Options) choices(c syncround.Config) []syncround.Choice {
	t := c.Round + 1
	ch := o.crashes().Choice(c)
	may := make([]uint64, o.N)
	if live := c.Alive &^ ch.Crash; (t+3)/4 < o.GST {
		for p := range may {
			if live&(1<<p) != 0 {
				_, to := c.Procs[p].Send(t)
				may[p] = to & live &^ (1 << p)
			}
		}
	}
	return syncround.Losses(ch, may)
}

// Drops returns Run's seeded adversary. Before GST it draws one number
// per message, in the order of the round loop it replaced — reports; then,
// per process, the proposal and, if that arrives, the ack; then decides —
// and loses a message whose draw falls below DropProb, unless it is a
// process's message to itself.
func (o Options) Drops() func(syncround.Config) syncround.Choice {
	rng := rand.New(rand.NewSource(o.Seed))
	lose := func(p, q int) bool { return rng.Float64() < o.DropProb && p != q }
	acks := make([]bool, o.N) // the acks lost this round, drawn with the proposals
	crashes := o.crashes()
	return func(c syncround.Config) syncround.Choice {
		t := c.Round + 1
		r, co := (t+3)/4, (t+3)/4%o.N
		ch := crashes.Choice(c)
		if r >= o.GST || !o.alive(co, r) {
			return ch
		}
		_, coSends := c.Procs[co].Send(t)
		for p := 0; p < o.N; p++ {
			if !o.alive(p, r) {
				continue
			}
			switch k := (t - 1) % 4; {
			case k == 0 && lose(p, co), k == 2 && acks[p]:
				ch.Lost[p] |= 1 << co
			case k == 1 && coSends != 0:
				lost := lose(co, p)
				if acks[p] = !lost && lose(p, co); lost {
					ch.Lost[co] |= 1 << p
				}
			case k == 3 && coSends != 0 && lose(co, p):
				ch.Lost[co] |= 1 << p
			}
		}
		return ch
	}
}

// proc is one process's state. Within a round, sending marks the
// coordinator holding a report quorum (it proposes its est), a process
// that locked this round's proposal (it acks), and the coordinator holding
// an ack quorum (it broadcasts decide(est)). A process sends its whole
// state; receivers read what the sub-round needs. A *proc is never
// changed: Recv returns a new one, or the receiver if nothing changed.
type proc struct {
	id, n, f int
	est      model.Value
	lock     int // round of the last lock; 0 = nothing locked
	decided  bool
	decision model.Value
	sending  bool
}

// Send implements syncround.Process.
func (s *proc) Send(t int) (any, uint64) {
	co := (t + 3) / 4 % s.n
	switch k := (t - 1) % 4; {
	case k == 0 || k == 2 && s.sending:
		return s, 1 << co
	case s.id == co && s.sending:
		return s, ^uint64(0)
	}
	return nil, 0
}

// Recv implements syncround.Process.
func (s *proc) Recv(t int, heard uint64, payloads []any) syncround.Process {
	next, r := *s, (t+3)/4
	co := r % s.n
	from, got := payloads[co], heard&(1<<co) != 0
	switch (t - 1) % 4 {
	case 0: // the coordinator proposes the report with the highest lock
		if s.id == co && bits.OnesCount64(heard) >= s.n-s.f {
			best := &proc{lock: -1}
			for q, rep := range payloads {
				if heard&(1<<q) != 0 && rep.(*proc).lock > best.lock {
					best = rep.(*proc)
				}
			}
			next.est, next.sending = best.est, true
		}
	case 1: // lock the proposal and ack it
		if next.sending = got; got {
			next.est, next.lock = from.(*proc).est, r
		}
	case 2: // the coordinator decides on an ack quorum
		next.sending = s.id == co && bits.OnesCount64(heard) >= s.n-s.f
	case 3:
		if got && !next.decided {
			next.decided, next.decision = true, from.(*proc).est
		}
		next.sending = false
	}
	if next == *s {
		return s
	}
	return &next
}

// AppendKey implements syncround.Process.
func (s *proc) AppendKey(b []byte) []byte {
	b = enc.AppendInt(enc.AppendInt(enc.AppendInt(b, int(s.est)), s.lock), int(s.decision))
	return enc.AppendBool(enc.AppendBool(b, s.decided), s.sending)
}

// Decide implements syncround.Process.
func (s *proc) Decide() (model.Value, bool) { return s.decision, s.decided }
