package fifo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// refTracker is the copy-on-deliver tracker this package shipped before its
// queues became in-place: a map of queues, every delivery rebuilding the
// destination's. It is the oracle the in-place Tracker is checked against.
type refTracker struct {
	queues map[model.PID][]model.Message
}

func newRef() *refTracker { return &refTracker{queues: make(map[model.PID][]model.Message)} }

func (t *refTracker) Send(m model.Message) {
	t.queues[m.To] = append(t.queues[m.To], m)
}

func (t *refTracker) Pending() int {
	n := 0
	for _, q := range t.queues {
		n += len(q)
	}
	return n
}

func (t *refTracker) Deliver(m model.Message) error {
	q := t.queues[m.To]
	for i, x := range q {
		if x == m {
			t.queues[m.To] = append(append([]model.Message(nil), q[:i]...), q[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("fifo: no pending instance of %s", m)
}

func (t *refTracker) Advance(e model.Event, sends []model.Message) error {
	if e.Msg != nil {
		if err := t.Deliver(*e.Msg); err != nil {
			return err
		}
	}
	for _, m := range sends {
		t.Send(m)
	}
	return nil
}

func (t *refTracker) Clone() *refTracker {
	c := &refTracker{queues: make(map[model.PID][]model.Message, len(t.queues))}
	for p, q := range t.queues {
		c.queues[p] = append([]model.Message(nil), q...)
	}
	return c
}

// agree compares every reader of the tracker against the oracle, for
// processes 0..n (n itself has never been sent to).
func agree(t *testing.T, step int, tr *Tracker, ref *refTracker, n int) {
	t.Helper()
	if got := pending(tr, n+1); got != ref.Pending() {
		t.Fatalf("step %d: pending = %d, oracle %d", step, got, ref.Pending())
	}
	for p := model.PID(0); int(p) <= n; p++ {
		want := ref.queues[p]
		if got := queueOf(tr, p); !slices.Equal(got, want) {
			t.Fatalf("step %d: queue of p%d = %v, oracle %v", step, p, got, want)
		}
		oldest, ok := tr.Oldest(p)
		newest, nok := tr.Newest(p)
		if ok != (len(want) > 0) || nok != ok {
			t.Fatalf("step %d: Oldest/Newest(%d) ok = %v/%v with %d pending", step, p, ok, nok, len(want))
		}
		if ok && (oldest != want[0] || newest != want[len(want)-1]) {
			t.Fatalf("step %d: Oldest/Newest(%d) = %v / %v, oracle list %v", step, p, oldest, newest, want)
		}
		for from := model.PID(0); int(from) < n; from++ {
			i := slices.IndexFunc(want, func(m model.Message) bool { return m.From == from })
			got, ok := tr.OldestFrom(p, from)
			if ok != (i >= 0) || (ok && got != want[i]) {
				t.Fatalf("step %d: OldestFrom(%d, %d) = %v, %v; oracle list %v", step, p, from, got, ok, want)
			}
		}
	}
}

// TestTrackerAgainstOracle drives random Send / Deliver / Advance / CopyFrom
// sequences — few distinct message values, so duplicates are common, and
// deliveries of absent messages included — through the Tracker and the
// copy-on-deliver oracle. Every reader and every error must agree after
// every operation, on the live pair and on the clones set aside earlier.
func TestTrackerAgainstOracle(t *testing.T) {
	const n = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randMsg := func() model.Message {
			return msg(model.PID(rng.Intn(n)), model.PID(rng.Intn(n)), string(rune('a'+rng.Intn(3))))
		}
		// inFlight picks a message that is in flight (any position of any
		// queue), falling back to a random, probably absent, one.
		inFlight := func(ref *refTracker) model.Message {
			if l := ref.queues[model.PID(rng.Intn(n))]; len(l) > 0 {
				return l[rng.Intn(len(l))]
			}
			return randMsg()
		}
		tr, ref := New(), newRef()
		type pair struct {
			tr  *Tracker
			ref *refTracker
		}
		var clones []pair
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				m := randMsg()
				tr.Send(m)
				ref.Send(m)
			case op < 7:
				m := inFlight(ref)
				if rng.Intn(8) == 0 {
					m = randMsg()
				}
				err, werr := tr.Deliver(m), ref.Deliver(m)
				if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("seed %d step %d: Deliver(%v) = %v, oracle %v", seed, step, m, err, werr)
				}
			case op < 9:
				e := model.NullEvent(model.PID(rng.Intn(n)))
				if rng.Intn(3) > 0 {
					e = model.Deliver(inFlight(ref))
				}
				sends := make([]model.Message, rng.Intn(3))
				for i := range sends {
					sends[i] = randMsg()
				}
				err, werr := tr.Advance(e, sends), ref.Advance(e, sends)
				if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("seed %d step %d: Advance(%v) = %v, oracle %v", seed, step, e, err, werr)
				}
			default:
				// Set a clone pair aside, swap one in, or overwrite one
				// through CopyFrom (which reuses its queues): in-place
				// edits on either side of a copy must not show on the other.
				switch i := rng.Intn(len(clones) + 1); {
				case i == len(clones):
					clones = append(clones, pair{clone(tr), ref.Clone()})
				case rng.Intn(2) == 0:
					clones[i], tr, ref = pair{tr, ref}, clones[i].tr, clones[i].ref
				default:
					clones[i].tr.CopyFrom(tr)
					clones[i].ref = ref.Clone()
				}
			}
			agree(t, step, tr, ref, n)
			for _, c := range clones {
				agree(t, step, c.tr, c.ref, n)
			}
		}
	}
}
