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
	queues  map[model.PID][]entry
	nextSeq uint64
}

func newRef() *refTracker { return &refTracker{queues: make(map[model.PID][]entry)} }

func (t *refTracker) Send(m model.Message) {
	t.queues[m.To] = append(t.queues[m.To], entry{msg: m, seq: t.nextSeq})
	t.nextSeq++
}

func (t *refTracker) PendingList(p model.PID) []model.Message {
	q := t.queues[p]
	out := make([]model.Message, len(q))
	for i, e := range q {
		out[i] = e.msg
	}
	return out
}

func (t *refTracker) OldestSeq(p model.PID) (uint64, bool) {
	if q := t.queues[p]; len(q) > 0 {
		return q[0].seq, true
	}
	return 0, false
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
	for i, e := range q {
		if e.msg == m {
			t.queues[m.To] = append(append([]entry(nil), q[:i]...), q[i+1:]...)
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
	c := &refTracker{queues: make(map[model.PID][]entry, len(t.queues)), nextSeq: t.nextSeq}
	for p, q := range t.queues {
		c.queues[p] = append([]entry(nil), q...)
	}
	return c
}

// agree compares every reader of the tracker against the oracle, for
// processes 0..n (n itself has never been sent to).
func agree(t *testing.T, step int, tr *Tracker, ref *refTracker, n int) {
	t.Helper()
	if tr.Pending() != ref.Pending() {
		t.Fatalf("step %d: Pending = %d, oracle %d", step, tr.Pending(), ref.Pending())
	}
	for p := model.PID(0); int(p) <= n; p++ {
		want := ref.PendingList(p)
		if got := tr.PendingList(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: PendingList(%d) = %v, oracle %v", step, p, got, want)
		}
		if tr.PendingTo(p) != len(want) {
			t.Fatalf("step %d: PendingTo(%d) = %d, oracle %d", step, p, tr.PendingTo(p), len(want))
		}
		seq, ok := tr.OldestSeq(p)
		if wseq, wok := ref.OldestSeq(p); seq != wseq || ok != wok {
			t.Fatalf("step %d: OldestSeq(%d) = %d, %v; oracle %d, %v", step, p, seq, ok, wseq, wok)
		}
		oldest, ok := tr.Oldest(p)
		newest, nok := tr.Newest(p)
		if ok != (len(want) > 0) || nok != ok {
			t.Fatalf("step %d: Oldest/Newest(%d) ok = %v/%v with %d pending", step, p, ok, nok, len(want))
		}
		if ok && (oldest != want[0] || newest != want[len(want)-1]) {
			t.Fatalf("step %d: Oldest/Newest(%d) = %v / %v, oracle list %v", step, p, oldest, newest, want)
		}
		for i, m := range want {
			if got := tr.At(p, i); got != m {
				t.Fatalf("step %d: At(%d, %d) = %v, oracle %v", step, p, i, got, m)
			}
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

// TestTrackerAgainstOracle drives random Send / Deliver / Advance / Clone /
// CopyFrom sequences — few distinct message values, so duplicates are common, and
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
		// pending picks a message that is in flight (any position of any
		// queue), falling back to a random, probably absent, one.
		pending := func(ref *refTracker) model.Message {
			if l := ref.PendingList(model.PID(rng.Intn(n))); len(l) > 0 {
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
				m := pending(ref)
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
					e = model.Deliver(pending(ref))
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
					clones = append(clones, pair{tr.Clone(), ref.Clone()})
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
