package distexplore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/flpsim/flp/internal/model"
)

// Deterministic fault injection. FaultyTransport wraps any Transport and
// perturbs the coordinator side of every connection according to a
// FaultPlan: connections dropped, frames delayed past their deadline,
// payloads truncated mid-frame, and — the scripted fault the differential
// tests are built on — a named worker killed at a named level. All
// randomness comes from PRNGs seeded from the plan (never the global
// math/rand source), one PRNG per connection keyed by address and dial
// count, so a plan replays the same fault schedule per worker regardless
// of goroutine interleaving.
//
// The wrapper is frame-aware: it buffers writes until a full frame is
// assembled, peeks at the type byte and (for expand/dedup/adopt requests)
// the level prefix of the payload, and only then decides the frame's fate.
// That is what makes "kill worker 2 at level 3" a deterministic, replayable
// event rather than a race.

// FaultPlan scripts the faults a FaultyTransport injects. The zero value
// injects nothing.
type FaultPlan struct {
	// Seed seeds the per-connection PRNGs driving the probabilistic
	// faults. 0 means seed 1.
	Seed int64

	// KillAddr names a worker (by dial address) to kill: the first frame
	// addressed to it that carries a level ≥ KillLevel is discarded, the
	// connection is severed, and every later dial to the address fails for
	// the transport's life — indistinguishable, from the coordinator's side,
	// from the worker process crashing at that level and never coming back.
	// Empty means no kill.
	KillAddr  string
	KillLevel int

	// DropProb is the per-frame probability of severing the connection
	// instead of delivering the frame (the frame is lost; the worker
	// stays up, so a re-dial succeeds).
	DropProb float64

	// DelayProb is the per-frame probability of stalling the frame for
	// Delay before delivery. Choose Delay larger than the coordinator's
	// RPCTimeout to force deadline expiries.
	DelayProb float64
	Delay     time.Duration

	// TruncateProb is the per-frame probability of delivering only the
	// first half of the frame's bytes and then severing the connection —
	// the receiver sees a malformed, short read.
	TruncateProb float64

	// CoordKillLevel, when positive, scripts a *coordinator* crash: the
	// first frame (to any worker) carrying a level ≥ CoordKillLevel is
	// discarded and the whole transport goes dead — every live connection
	// severed on its next frame, every later dial refused. From the
	// exploration's point of view this is what the coordinator process
	// being SIGKILLed at that point looks like: the run errors out
	// mid-level, leaving whatever the checkpoint store last persisted as
	// the only recoverable state. The chaos sweep uses it to crash runs
	// deterministically at each level and verify that -resume restores
	// byte-identical results.
	CoordKillLevel int
}

// FaultyTransport wraps an inner Transport with a FaultPlan. It is safe
// for concurrent use by the coordinator's fanout goroutines.
type FaultyTransport struct {
	inner Transport
	plan  FaultPlan

	mu        sync.Mutex
	killed    map[string]bool
	dials     map[string]int
	coordDead bool
}

// NewFaultyTransport wraps inner with the given plan.
func NewFaultyTransport(inner Transport, plan FaultPlan) *FaultyTransport {
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	return &FaultyTransport{
		inner:  inner,
		plan:   plan,
		killed: make(map[string]bool),
		dials:  make(map[string]int),
	}
}

// Listen implements Transport: the worker side is untouched — faults are
// injected on the coordinator's connections, where the protocol's failure
// handling lives.
func (ft *FaultyTransport) Listen(addr string) (Listener, error) { return ft.inner.Listen(addr) }

// Dial implements Transport. Dials to a killed worker fail, exactly as
// dials to a crashed process would.
func (ft *FaultyTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	ft.mu.Lock()
	if ft.coordDead {
		ft.mu.Unlock()
		return nil, fmt.Errorf("fault injection: coordinator is dead")
	}
	if ft.killed[addr] {
		ft.mu.Unlock()
		return nil, fmt.Errorf("fault injection: worker %s is dead", addr)
	}
	ft.dials[addr]++
	seed := ft.plan.Seed ^ int64(hashAddr(addr)) ^ int64(ft.dials[addr])<<32
	ft.mu.Unlock()

	c, err := ft.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: c, ft: ft, addr: addr}
	if p := ft.plan; p.DropProb > 0 || p.TruncateProb > 0 || p.DelayProb > 0 {
		fc.rng = rand.New(rand.NewSource(seed)) // only the probabilistic faults draw
	}
	return fc, nil
}

func (ft *FaultyTransport) kill(addr string) {
	ft.mu.Lock()
	ft.killed[addr] = true
	ft.mu.Unlock()
}

func (ft *FaultyTransport) killCoord() {
	ft.mu.Lock()
	ft.coordDead = true
	ft.mu.Unlock()
}

func (ft *FaultyTransport) coordKilled() bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.coordDead
}

func hashAddr(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// faultConn intercepts the write path of one coordinator connection,
// reassembling frames from the byte stream and applying the plan per
// frame. Reads and the rest of net.Conn pass through.
type faultConn struct {
	net.Conn
	ft   *FaultyTransport
	addr string
	rng  *rand.Rand // nil unless the plan has a probabilistic fault

	wbuf      []byte
	wdeadline time.Time
}

func (fc *faultConn) SetWriteDeadline(t time.Time) error {
	fc.wdeadline = t
	return fc.Conn.SetWriteDeadline(t)
}

func (fc *faultConn) SetDeadline(t time.Time) error {
	fc.wdeadline = t
	return fc.Conn.SetDeadline(t)
}

// Write buffers until at least one full frame is assembled, then delivers
// (or sabotages) each complete frame. Partial trailing bytes wait for the
// next Write, mirroring how writeFrame emits header and payload
// separately.
func (fc *faultConn) Write(p []byte) (int, error) {
	fc.wbuf = append(fc.wbuf, p...)
	for {
		if len(fc.wbuf) < 5 {
			return len(p), nil
		}
		n := int(binary.BigEndian.Uint32(fc.wbuf[:4]))
		if len(fc.wbuf) < 5+n {
			return len(p), nil
		}
		frame := make([]byte, 5+n)
		copy(frame, fc.wbuf[:5+n])
		fc.wbuf = fc.wbuf[5+n:]
		if err := fc.deliver(frame); err != nil {
			return 0, err
		}
	}
}

// deliver decides one frame's fate: scripted kill first (deterministic by
// construction), then the seeded probabilistic faults, then forwarding.
func (fc *faultConn) deliver(frame []byte) error {
	plan := &fc.ft.plan

	if fc.ft.coordKilled() {
		fc.Conn.Close()
		return fmt.Errorf("fault injection: coordinator is dead")
	}
	if plan.CoordKillLevel > 0 {
		if level, ok := frameLevel(frame); ok && level >= plan.CoordKillLevel {
			fc.ft.killCoord()
			fc.Conn.Close()
			return fmt.Errorf("fault injection: coordinator killed at level %d", level)
		}
	}
	if plan.KillAddr == fc.addr {
		if level, ok := frameLevel(frame); ok && level >= plan.KillLevel {
			fc.ft.kill(fc.addr)
			fc.Conn.Close()
			return fmt.Errorf("fault injection: worker %s killed at level %d", fc.addr, level)
		}
	}
	if plan.DropProb > 0 && fc.rng.Float64() < plan.DropProb {
		fc.Conn.Close()
		return fmt.Errorf("fault injection: connection to %s dropped", fc.addr)
	}
	if plan.TruncateProb > 0 && fc.rng.Float64() < plan.TruncateProb {
		fc.Conn.Write(frame[:len(frame)/2])
		fc.Conn.Close()
		return fmt.Errorf("fault injection: frame to %s truncated", fc.addr)
	}
	if plan.DelayProb > 0 && fc.rng.Float64() < plan.DelayProb {
		time.Sleep(plan.Delay)
		if !fc.wdeadline.IsZero() && time.Now().After(fc.wdeadline) {
			fc.Conn.Close()
			return fmt.Errorf("fault injection: frame to %s delayed past the write deadline", fc.addr)
		}
	}
	_, err := fc.Conn.Write(frame)
	return err
}

// frameLevel extracts the level prefix from request frames that carry one
// (expand, dedup, adopt). Frames without a level — init, shutdown,
// responses — report false.
func frameLevel(frame []byte) (int, bool) {
	switch frame[4] {
	case frameExpand, frameDedup, frameAdopt:
	default:
		return 0, false
	}
	r := model.NewReader(frame[5:])
	level := r.Int("level")
	return level, r.Err() == nil
}
