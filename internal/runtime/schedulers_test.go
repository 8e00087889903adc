package runtime_test

import (
	"testing"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/fifo"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/runtime"
)

// These are admissibility property tests: a schedule produced by any of
// the run-generating components — the fair schedulers of this package and
// the Theorem 1 adversary — must replay cleanly against the model (every
// event applicable in the configuration where it is taken, every
// delivered message actually pending), and the components that promise
// the paper's "earliest sent, first delivered" discipline must honour it.

// replay applies a recorded schedule from an initial configuration,
// stepping a FIFO tracker alongside, and calls inspect before each event
// with the configuration and tracker as they stand at that point. It
// fails the test on any inapplicable event or phantom delivery.
func replay(t *testing.T, pr model.Protocol, inputs model.Inputs, sigma model.Schedule,
	inspect func(i int, e model.Event, c *model.Config, tr *fifo.Tracker)) {
	t.Helper()
	c := model.MustInitial(pr, inputs)
	tr := fifo.New()
	for i, e := range sigma {
		if e.Msg != nil {
			// The delivery must name a message genuinely in flight, not
			// just one the tracker can be talked into.
			if c.Buffer().Count(*e.Msg) == 0 {
				t.Fatalf("event %d (%s): delivered message not in the buffer", i, e)
			}
		}
		if inspect != nil {
			inspect(i, e, c, tr)
		}
		nc, sends, err := model.ApplyTraced(pr, c, e)
		if err != nil {
			t.Fatalf("event %d (%s): not applicable: %v", i, e, err)
		}
		if err := tr.Advance(e, sends); err != nil {
			t.Fatalf("event %d (%s): FIFO tracker rejected it: %v", i, e, err)
		}
		c = nc
	}
}

// TestRoundRobinSchedulesOldestFirst replays round-robin runs and asserts
// the FIFO promise: every delivery is the oldest pending message for its
// process at the moment it is taken.
func TestRoundRobinSchedulesOldestFirst(t *testing.T) {
	for _, name := range []string{"naivemajority", "2pc", "waitall"} {
		t.Run(name, func(t *testing.T) {
			factory, _ := protocols.Lookup(name)
			pr, err := factory(3)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range model.AllInputs(3) {
				res, err := runtime.Run(pr, in, runtime.NewRoundRobin(),
					runtime.RunOptions{RecordSchedule: true, MaxSteps: 500})
				if err != nil {
					t.Fatalf("inputs %s: %v", in, err)
				}
				replay(t, pr, in, res.Schedule, func(i int, e model.Event, c *model.Config, tr *fifo.Tracker) {
					if e.Msg == nil {
						return
					}
					oldest, ok := tr.Oldest(e.P)
					if !ok {
						t.Fatalf("inputs %s event %d (%s): delivery with empty queue", in, i, e)
					}
					if oldest != *e.Msg {
						t.Fatalf("inputs %s event %d: delivered %s, oldest pending is %s", in, i, *e.Msg, oldest)
					}
				})
			}
		})
	}
}

// TestRandomFairSchedulesAdmissible replays random-fair runs across seeds:
// no inapplicable events, no deliveries of messages that were never sent
// or already consumed.
func TestRandomFairSchedulesAdmissible(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	for seed := int64(1); seed <= 12; seed++ {
		res, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.RandomFair{NullProb: 0.2},
			runtime.RunOptions{RecordSchedule: true, MaxSteps: 400, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		replay(t, pr, model.Inputs{0, 1, 1}, res.Schedule, nil)
	}
}

// listRandomFair is RandomFair as first written: it copies each live
// process's pending list to draw one index from it.
type listRandomFair struct{ runtime.RandomFair }

func (rf listRandomFair) Next(s *runtime.Sim) (model.Event, bool) {
	var candidates []model.Event
	for _, p := range s.LiveProcesses() {
		pending := s.Tracker().PendingList(p)
		wantNull := rf.NullProb > 0 && s.Rand().Float64() < rf.NullProb
		if null := model.NullEvent(p); wantNull && s.Effectful(null) {
			candidates = append(candidates, null)
		} else if len(pending) > 0 {
			candidates = append(candidates, model.Deliver(pending[s.Rand().Intn(len(pending))]))
		} else if s.Effectful(null) {
			candidates = append(candidates, null)
		}
	}
	if len(candidates) == 0 {
		return model.Event{}, false
	}
	return candidates[s.Rand().Intn(len(candidates))], true
}

// TestRandomFairSeededSchedulesStable pins the scheduler's draw sequence:
// reading one pending message in place must consume the random source
// exactly as indexing a copied list did, so every seeded schedule stands.
func TestRandomFairSeededSchedulesStable(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	for _, nullProb := range []float64{0, 0.3} {
		for seed := int64(1); seed <= 10; seed++ {
			opt := runtime.RunOptions{RecordSchedule: true, MaxSteps: 400, Seed: seed}
			rf := runtime.RandomFair{NullProb: nullProb}
			got, err := runtime.Run(pr, model.Inputs{0, 1, 1}, rf, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runtime.Run(pr, model.Inputs{0, 1, 1}, listRandomFair{rf}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Schedule.String() != want.Schedule.String() || len(got.Schedule) == 0 {
				t.Errorf("null probability %v, seed %d: schedule\n  %s\nwith a copied pending list\n  %s",
					nullProb, seed, got.Schedule, want.Schedule)
			}
		}
	}
}

// TestDelayedSchedulerNeverStepsVictim checks the Delayed wrapper's
// contract on recorded schedules: the victim takes no step, yet the run
// remains admissible for everyone else.
func TestDelayedSchedulerNeverStepsVictim(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	victim := model.PID(2)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1},
		runtime.Delayed{Victim: victim, Inner: runtime.NewRoundRobin()},
		runtime.RunOptions{RecordSchedule: true, MaxSteps: 300, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("delayed run recorded no events")
	}
	for i, e := range res.Schedule {
		if e.P == victim {
			t.Fatalf("event %d: delayed victim p%d took a step", i, victim)
		}
	}
	replay(t, pr, model.Inputs{0, 1, 1}, res.Schedule, nil)
}

// TestAdversaryScheduleAdmissible is the Theorem 1 property test: the
// staged non-deciding run must be an admissible schedule — every event
// applicable when taken — and each stage must service its queue-head
// process by committing that process's oldest pending message as of the
// stage boundary (the paper's "earliest sent, first delivered" argument
// for why the limit run delivers every message).
func TestAdversaryScheduleAdmissible(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	const stages = 7
	probe := explore.ProbeOptions{}
	adv := adversary.New(pr, adversary.Options{
		Stages:  stages,
		Search:  explore.Options{MaxConfigs: 2000},
		Valency: explore.Options{MaxConfigs: 1500},
		Probe:   &probe,
	})
	res, err := adv.RunFromInputs(model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != stages {
		t.Fatalf("adversary ran %d stages, want %d", len(res.Stages), stages)
	}

	// The schedule must be the concatenation of the stage schedules; find
	// each stage's boundary so the inspection below knows where stages
	// begin.
	type boundary struct {
		start     int // index into res.Schedule of the stage's first event
		process   model.PID
		committed model.Event
	}
	var bounds []boundary
	off := 0
	for si, st := range res.Stages {
		bounds = append(bounds, boundary{start: off, process: st.Process, committed: st.Committed})
		for j, e := range st.Sigma {
			if off+j >= len(res.Schedule) || !res.Schedule[off+j].Same(e) {
				t.Fatalf("stage %d: schedule is not the concatenation of stage sigmas at event %d", si, off+j)
			}
		}
		if len(st.Sigma) == 0 || !st.Sigma[len(st.Sigma)-1].Same(st.Committed) {
			t.Fatalf("stage %d: committed event is not the stage's last event", si)
		}
		if st.Committed.P != st.Process {
			t.Fatalf("stage %d: committed event steps p%d, queue head is p%d", si, st.Committed.P, st.Process)
		}
		off += len(st.Sigma)
	}
	if off != len(res.Schedule) {
		t.Fatalf("stage sigmas cover %d events, schedule has %d", off, len(res.Schedule))
	}

	// Replay the whole run. At each stage boundary, the committed event
	// must be exactly what the construction promises: the oldest message
	// pending for the queue-head process — or a null step if its queue is
	// empty.
	bi := 0
	replay(t, pr, res.Inputs, res.Schedule, func(i int, e model.Event, c *model.Config, tr *fifo.Tracker) {
		if bi >= len(bounds) || i != bounds[bi].start {
			return
		}
		b := bounds[bi]
		bi++
		oldest, pending := tr.Oldest(b.process)
		switch {
		case pending && (b.committed.Msg == nil || *b.committed.Msg != oldest):
			t.Fatalf("stage %d: queue head p%d has oldest pending %s, stage commits %s",
				bi-1, b.process, oldest, b.committed)
		case !pending && b.committed.Msg != nil:
			t.Fatalf("stage %d: queue head p%d has nothing pending, stage commits delivery %s",
				bi-1, b.process, b.committed)
		}
	})

	// The constructed prefix must be non-deciding — that is the point of
	// the theorem.
	if res.DecidedCount() != 0 {
		t.Fatalf("%d processes decided in the adversary's run", res.DecidedCount())
	}
}
