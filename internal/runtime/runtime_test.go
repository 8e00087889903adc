package runtime_test

import (
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/runtime"
)

func TestRoundRobinDecidesWaitAll(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.NewRoundRobin(), runtime.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided || res.Blocked {
		t.Fatalf("run did not decide: %+v", res)
	}
	if v, ok := res.DecidedValue(); !ok || v != model.V1 {
		t.Errorf("decided %v (ok=%v), want 1", v, ok)
	}
	if res.Steps == 0 || res.Final == nil {
		t.Error("missing run bookkeeping")
	}
	if res.Scheduler != "round-robin" || !strings.HasPrefix(res.Protocol, "waitall") {
		t.Errorf("labels wrong: %q %q", res.Scheduler, res.Protocol)
	}
}

func TestRandomFairDecidesAcrossSeeds(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	for seed := int64(0); seed < 10; seed++ {
		res, err := runtime.Run(pr, model.Inputs{1, 1, 0}, runtime.RandomFair{},
			runtime.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllLiveDecided {
			t.Errorf("seed %d: blocked", seed)
		}
	}
}

func TestRandomFairWithNullProb(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	res, err := runtime.Run(pr, model.Inputs{1, 1, 0}, runtime.RandomFair{NullProb: 0.3},
		runtime.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided {
		t.Error("blocked with NullProb set")
	}
}

func TestInitiallyDeadProcessTakesNoSteps(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{CrashAfter: map[model.PID]int{1: 0}, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Schedule {
		if e.P == 1 {
			t.Fatal("initially dead process took a step")
		}
	}
	if _, ok := res.Decisions[1]; ok {
		t.Error("dead process decided")
	}
	if !res.AllLiveDecided {
		t.Error("live processes did not decide")
	}
}

func TestCrashAfterKSteps(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{CrashAfter: map[model.PID]int{0: 2}, RecordSchedule: true, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	steps0 := 0
	for _, e := range res.Schedule {
		if e.P == 0 {
			steps0++
		}
	}
	if steps0 != 2 {
		t.Errorf("crashed process took %d steps, want exactly 2", steps0)
	}
	// p0's vote was broadcast in its first step, so the survivors still
	// decide; p0 itself died undecided.
	if !res.AllLiveDecided {
		t.Error("live processes did not decide after the late crash")
	}
	if _, ok := res.Decisions[0]; ok {
		t.Error("crashed process decided")
	}
}

func TestCrashAfterRejectsBadPID(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	_, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{CrashAfter: map[model.PID]int{7: 0}})
	if err == nil {
		t.Error("CrashAfter with invalid process accepted")
	}
}

// stubSched always proposes the same event, for error-path tests.
type stubSched struct{ e model.Event }

func (s stubSched) Name() string                          { return "stub" }
func (s stubSched) Next(*runtime.Sim) (model.Event, bool) { return s.e, true }

func TestSchedulerSteppingCrashedProcessErrors(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	_, err := runtime.Run(pr, model.Inputs{0, 1, 1}, stubSched{model.NullEvent(0)},
		runtime.RunOptions{CrashAfter: map[model.PID]int{0: 0}})
	if err == nil {
		t.Error("scheduling a crashed process did not error")
	}
}

func TestDelayedVictimNeverSteps(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1},
		runtime.Delayed{Victim: 2, Inner: runtime.NewRoundRobin()},
		runtime.RunOptions{RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Schedule {
		if e.P == 2 {
			t.Fatal("delayed victim took a step")
		}
	}
	// Unlike a crash, the victim still counts as live, so the run reports
	// blocked even though the others decided.
	if res.AllLiveDecided {
		t.Error("run claims all live decided while the victim cannot step")
	}
	if _, ok := res.Decisions[0]; !ok {
		t.Error("p0 should have decided without the victim")
	}
}

func TestQuiescenceDetected(t *testing.T) {
	// 2PC with a delayed coordinator drains all remaining events.
	pr := protocols.NewTwoPhaseCommit(3)
	res, err := runtime.Run(pr, model.Inputs{1, 1, 1},
		runtime.Delayed{Victim: 0, Inner: runtime.NewRoundRobin()}, runtime.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent || !res.Blocked {
		t.Errorf("quiescent=%v blocked=%v, want both true", res.Quiescent, res.Blocked)
	}
}

func TestMaxStepsBound(t *testing.T) {
	pr := protocols.NewBenOrDeterministic(3, 42)
	res, err := runtime.Run(pr, model.Inputs{0, 1, 1}, runtime.RandomFair{},
		runtime.RunOptions{MaxSteps: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 5 {
		t.Errorf("run took %d steps, bound was 5", res.Steps)
	}
}

func TestRunToCompletion(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	stop, err := runtime.Run(pr, model.Inputs{1, 1, 1}, runtime.NewRoundRobin(), runtime.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := runtime.Run(pr, model.Inputs{1, 1, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Steps < stop.Steps {
		t.Errorf("RunToCompletion took fewer steps (%d) than early stop (%d)", full.Steps, stop.Steps)
	}
	if !full.Quiescent {
		t.Error("RunToCompletion did not reach quiescence on a terminating protocol")
	}
}

func TestDecidedValue(t *testing.T) {
	r := &runtime.RunResult{Decisions: map[model.PID]model.Value{0: 1, 1: 1}}
	if v, ok := r.DecidedValue(); !ok || v != model.V1 {
		t.Errorf("DecidedValue = %v, %v", v, ok)
	}
	r2 := &runtime.RunResult{Decisions: map[model.PID]model.Value{0: 1, 1: 0}}
	if _, ok := r2.DecidedValue(); ok {
		t.Error("two-valued result reported a unique decision")
	}
	r3 := &runtime.RunResult{Decisions: map[model.PID]model.Value{}}
	if _, ok := r3.DecidedValue(); ok {
		t.Error("empty decisions reported a unique decision")
	}
}

func TestRunManyAggregation(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	agg, err := runtime.RunMany(pr, model.Inputs{1, 1, 0},
		func() runtime.Scheduler { return runtime.RandomFair{} },
		runtime.RunOptions{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 10 || agg.Decided != 10 || agg.Blocked != 0 {
		t.Errorf("agg = %+v", agg)
	}
	if agg.Decided != agg.Runs {
		t.Errorf("%d of %d runs decided, want all", agg.Decided, agg.Runs)
	}
	if agg.MeanSteps() <= 0 || agg.MaxRun <= 0 {
		t.Errorf("steps stats wrong: mean=%v max=%d", agg.MeanSteps(), agg.MaxRun)
	}
	if agg.ValueCounts[model.V1] != 10 {
		t.Errorf("ValueCounts = %v", agg.ValueCounts)
	}
}

func TestRunManyCountsBlockedRuns(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	agg, err := runtime.RunMany(pr, model.Inputs{1, 1, 0},
		func() runtime.Scheduler { return runtime.RandomFair{} },
		runtime.RunOptions{CrashAfter: map[model.PID]int{0: 0}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Blocked != 5 || agg.Decided != 0 {
		t.Errorf("agg = %+v, want all blocked", agg)
	}
	if agg.Decided != 0 || agg.Runs != 5 || agg.MeanSteps() != 0 {
		t.Errorf("rates on blocked ensemble: %d of %d decided, mean steps %v", agg.Decided, agg.Runs, agg.MeanSteps())
	}
}

func TestEnsembleZeroRuns(t *testing.T) {
	var agg runtime.EnsembleResult
	if agg.Decided != 0 || agg.Runs != 0 || agg.MeanSteps() != 0 {
		t.Error("zero-run ensemble produced nonzero rates")
	}
}
