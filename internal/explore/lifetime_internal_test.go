package explore

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestWalkDismissesItsGang holds every way out of a walk on the pool —
// complete, cut by the budget, stopped at a node whose row does not fit
// (edges kept), stopped by its visit, and a re-raised expansion panic — to
// dismissing the gang it enlisted before it returns: the count of jobs not
// yet ended is up during the walk and back where it was after it.
func TestWalkDismissesItsGang(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	type way struct {
		name   string
		budget int
		edges  bool
		stopAt int // the visit that stops the walk, 0 for none
		boomAt int // the visit after which every expansion panics, 0 for none
	}
	for _, w := range []way{
		{name: "complete"},
		{name: "budget cut", budget: 30},
		{name: "edges-mode stop", budget: 30, edges: true},
		{name: "visit stop", stopAt: 20},
		{name: "panic", boomAt: 10},
	} {
		before := enlisted.Load()
		during := before
		visits := 0
		var boom bool // written by the visit, between chunks
		skip := func(model.Event) bool {
			if boom {
				panic("skip: boom")
			}
			return false
		}
		c := new(core)
		c.init(pr, root, skip)
		c.edges = w.edges
		panicked := func() (v any) {
			defer func() { v = recover() }()
			c.walk(0, Options{MaxConfigs: w.budget, Workers: 4}.withDefaults(), func(*model.Config, int, func() model.Schedule) bool {
				during = max(during, enlisted.Load())
				visits++
				boom = boom || visits == w.boomAt
				return visits == w.stopAt
			})
			return nil
		}()
		if (panicked != nil) != (w.boomAt > 0) {
			t.Fatalf("%s: the walk surfaced %v", w.name, panicked)
		}
		if during <= before {
			t.Fatalf("%s: no gang was enlisted during the walk (%d jobs open, %d before)", w.name, during, before)
		}
		if after := enlisted.Load(); after != before {
			t.Fatalf("%s: %d jobs open after the walk, %d before: its gang was not dismissed", w.name, after, before)
		}
	}
}

// nilInitProto is naivemajority(3) whose process 1 cannot start with input
// 1, so the root loops hit an initial configuration they cannot build.
type nilInitProto struct{ model.Protocol }

func (p nilInitProto) Init(pid model.PID, v model.Value) model.State {
	if pid == 1 && v == model.V1 {
		return nil
	}
	return p.Protocol.Init(pid, v)
}

// TestRootLoopClosesItsJob holds every way out of a root loop on the pool
// — all roots consumed, a stop, a root that cannot be built, a panicking
// walk — to closing its job, which releases the members, before the loop
// returns: every walk sees the job open, and the loop leaves the count of
// jobs not yet ended where it was.
func TestRootLoopClosesItsJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	nm := protocols.NewNaiveMajority(3)
	boom := model.MustInitial(nm, model.Inputs{0, 1, 1}).KeyBytes()
	for _, w := range []struct {
		name    string
		pr      model.Protocol
		stopAt  int // the root each stops at, −1 for none
		panics  bool
		wantErr bool
	}{
		{"complete", nm, -1, false, false},
		{"stop", nm, 2, false, false},
		{"error", nilInitProto{nm}, -1, false, true},
		{"panic", nm, -1, true, false},
	} {
		before := enlisted.Load()
		var shut atomic.Bool // a walk saw no job open
		seen := 0
		panicked := func() (v any) {
			defer func() { v = recover() }()
			_, err := Census(w.pr, Options{MaxConfigs: 200, Workers: 4}, func(c *model.Config, o Options) ValencyInfo {
				if enlisted.Load() <= before {
					shut.Store(true)
				}
				if w.panics && bytes.Equal(c.KeyBytes(), boom) {
					panic("classify: boom")
				}
				return Classify(w.pr, c, o)
			}, func(InitialValency) bool {
				seen++
				return seen-1 != w.stopAt
			})
			if (err != nil) != w.wantErr {
				t.Fatalf("%s: the census returned %v", w.name, err)
			}
			return nil
		}()
		if (panicked != nil) != w.panics {
			t.Fatalf("%s: the census surfaced %v", w.name, panicked)
		}
		if shut.Load() {
			t.Fatalf("%s: a root was walked while no job was open", w.name)
		}
		if after := enlisted.Load(); after != before {
			t.Fatalf("%s: %d jobs open after the census, %d before: its root job was not closed", w.name, after, before)
		}
	}
}

// TestEndedJobsReleaseTheirHelpers holds a helper to leaving an ended job
// without touching what the job's owner may already have reused: a member
// that stays in a gang whose last chunk is spent leaves when the gang is
// dismissed, one that joins a dismissed gang leaves at once, and a member
// of a root loop whose window is spent leaves when the loop closes. The
// jobs here have no core, table, scratch or protocol: touching any of
// them would panic.
func TestEndedJobsReleaseTheirHelpers(t *testing.T) {
	spent := &levelJob{n: 2}
	spent.cursor.Store(2)
	g := &gang{places: 1}
	g.chunk.Store(spent)
	enlisted.Add(1)
	left := make(chan struct{})
	go func() { g.help(); close(left) }()
	g.dismiss()
	<-left
	g.help() // joins after the dismissal

	j := &rootJob[int]{ins: make([]model.Inputs, 3), slots: make([]rootSlot[int], 3), wake: make(chan struct{}, 1)}
	enlisted.Add(1)
	left = make(chan struct{})
	go func() { j.help(); close(left) }() // the window (limit 0) lets it claim nothing
	j.close()
	<-left
	j.help() // takes the loop after it closed
	for i := range j.slots {
		if s := &j.slots[i]; s.done.Load() || s.failed || s.err != nil {
			t.Fatalf("root %d of a closed loop was walked", i)
		}
	}
}
