package explore

import (
	"sync/atomic"

	"github.com/flpsim/flp/internal/model"
)

// eachRoot is the one loop over pr's initial configurations, behind Census
// and CheckPartialCorrectness: walk explores one root and returns what it
// found, and yield consumes the results strictly in AllInputs order,
// stopping the loop by returning false. A root whose initial configuration
// cannot be built ends the loop with that error, as it would sequentially;
// an N whose roots cannot be listed (model.CheckInputsN) ends it first.
//
// With opt.Workers ≤ 1, or a single root, the roots are walked one after
// another on the caller with opt itself, so each exploration keeps the
// workers for its levels. Otherwise the root is the grain: a rootJob hands
// root indices from an atomic cursor to the caller and to up to Workers−1
// idle helpers (the level pool's, see offer), and every root is walked
// inline, with Workers: 1. While the result yield needs next is in flight
// on a helper, the caller walks roots itself or parks; if no helper is
// idle it walks every root. When stoppable (yield may return false), no
// root more than Workers−1 past the one yield waits for is handed out, so
// a stop wastes at most Workers−1 walks. Their results are dropped, and
// eachRoot returns only once they are done: no walk outlives the call. A
// panic in walk is re-raised on the caller when yield reaches its root,
// which is the root the sequential loop would have panicked on.
func eachRoot[R any](pr model.Protocol, opt Options, stoppable bool,
	walk func(in model.Inputs, c *model.Config, opt Options) R, yield func(R) bool) error {
	if err := model.CheckInputsN(pr.N()); err != nil {
		return err
	}
	ins := model.AllInputs(pr.N())
	n, workers := len(ins), opt.withDefaults().Workers
	if workers <= 1 || n <= 1 {
		for _, in := range ins {
			c, err := model.Initial(pr, in)
			if err != nil {
				return err
			}
			if !yield(walk(in, c, opt)) {
				break
			}
		}
		return nil
	}
	j := &rootJob[R]{pr: pr, opt: opt, ins: ins, walk: walk,
		slots: make([]rootSlot[R], n), wake: make(chan struct{}, 1)}
	j.opt.Workers = 1
	window := n
	if stoppable {
		window = workers
	}
	j.limit.Store(int64(min(window, n)))
	offer(j, min(workers, n)-1)
	defer j.close()
	for i := range j.slots {
		s := j.await(i)
		switch {
		case s.failed:
			panic(s.failure)
		case s.err != nil:
			return s.err
		case !yield(s.r):
			return nil
		}
		if next := i + 1 + window; stoppable && next <= n {
			j.limit.Store(int64(next))
			offer(j, min(workers-1, next-int(j.cursor.Load())))
		}
	}
	return nil
}

// rootJob is one root loop on its way through eachRoot: roots
// [cursor, limit) of ins may be handed out, each walked with opt into its
// slot. Everything but the atomics and the slots is fixed before the job is
// offered; a slot is written only by the goroutine that claimed its root,
// before done is set. A helper that takes the job once nothing is left to
// hand out touches only the atomics, so a job may outlive its loop.
type rootJob[R any] struct {
	pr     model.Protocol
	opt    Options // the caller's, with Workers: 1
	ins    []model.Inputs
	walk   func(model.Inputs, *model.Config, Options) R
	slots  []rootSlot[R]
	cursor atomic.Int64  // roots handed out
	limit  atomic.Int64  // roots that may be handed out, at most len(ins)
	wake   chan struct{} // a root is done; the caller's only parking spot
}

// rootSlot is one root's outcome: walk's result, the error building its
// initial configuration, or the panic walking it.
type rootSlot[R any] struct {
	r       R
	err     error
	failed  bool
	failure any
	done    atomic.Bool
}

// help walks roots of j until none may be handed out.
func (j *rootJob[R]) help() {
	for k := j.claim(); k >= 0; k = j.claim() {
		j.run(k)
	}
}

// claim hands out the next root below the limit, or −1.
func (j *rootJob[R]) claim() int {
	for {
		k := j.cursor.Load()
		if k >= j.limit.Load() {
			return -1
		}
		if j.cursor.CompareAndSwap(k, k+1) {
			return int(k)
		}
	}
}

// run walks root k into its slot, recording a panic instead of raising it,
// and wakes the caller.
func (j *rootJob[R]) run(k int) {
	s := &j.slots[k]
	ok := false
	defer func() {
		if !ok {
			s.failed, s.failure = true, recover()
		}
		s.done.Store(true)
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}()
	if c, err := model.Initial(j.pr, j.ins[k]); err != nil {
		s.err = err
	} else {
		s.r = j.walk(j.ins[k], c, j.opt)
	}
	ok = true
}

// await returns root i's slot once it is done, walking roots that may
// still be handed out while it waits and parking when none may.
func (j *rootJob[R]) await(i int) *rootSlot[R] {
	s := &j.slots[i]
	for !s.done.Load() {
		if k := j.claim(); k >= 0 {
			j.run(k)
		} else {
			<-j.wake
		}
	}
	return s
}

// close stops handing out roots and waits for those handed out already.
func (j *rootJob[R]) close() {
	claimed := int(j.cursor.Swap(int64(len(j.ins))))
	for i := range claimed {
		for !j.slots[i].done.Load() {
			<-j.wake
		}
	}
}
