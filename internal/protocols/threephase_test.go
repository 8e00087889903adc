package protocols_test

import (
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/runtime"
)

func TestThreePhaseConformance(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		modeltest.CheckConformance(t, protocols.NewThreePhaseCommit(3), model.Inputs{1, 1, 1}, 120, seed)
		modeltest.CheckConformance(t, protocols.NewThreePhaseCommit(4), model.Inputs{1, 0, 1, 1}, 120, seed)
	}
}

func TestThreePhaseSemantics(t *testing.T) {
	pr := protocols.NewThreePhaseCommit(3)
	for _, in := range model.AllInputs(3) {
		res := mustRun(t, pr, in, rr(), runtime.RunOptions{})
		want := model.V1
		if in.Count(model.V0) > 0 {
			want = model.V0
		}
		if v, ok := res.DecidedValue(); !ok || v != want {
			t.Errorf("inputs %s: decided %v (ok=%v), want %v", in, v, ok, want)
		}
		if res.AgreementViolated {
			t.Errorf("inputs %s: agreement violated", in)
		}
	}
}

func TestThreePhaseCostsMoreThanTwoPhase(t *testing.T) {
	// The extra PRECOMMIT/ACK round is visible as a longer healthy run.
	two := mustRun(t, protocols.NewTwoPhaseCommit(3), model.Inputs{1, 1, 1}, rr(), runtime.RunOptions{})
	three := mustRun(t, protocols.NewThreePhaseCommit(3), model.Inputs{1, 1, 1}, rr(), runtime.RunOptions{})
	if three.Steps <= two.Steps {
		t.Errorf("3PC (%d steps) not costlier than 2PC (%d steps)", three.Steps, two.Steps)
	}
}

func TestThreePhaseStillBlocksOnDelayedCoordinator(t *testing.T) {
	// The whole point: without timeouts, the third phase buys nothing.
	pr := protocols.NewThreePhaseCommit(3)
	res := mustRun(t, pr, model.Inputs{1, 1, 1},
		runtime.Delayed{Victim: protocols.Coordinator, Inner: runtime.NewRoundRobin()},
		runtime.RunOptions{})
	if !res.Blocked || len(res.Decisions) != 0 {
		t.Errorf("3PC decided with a delayed coordinator: %v", res.Decisions)
	}
	// And the window extends into the prepared phase: crash the
	// coordinator after it has sent PRECOMMIT but before COMMIT. Its
	// steps are the n-1 vote deliveries (PRECOMMIT goes out with the
	// last) plus n-1 ack deliveries (COMMIT with the last) — so crashing
	// after n-1+1 steps strands prepared participants.
	res2 := mustRun(t, pr, model.Inputs{1, 1, 1}, rr(),
		runtime.RunOptions{CrashAfter: map[model.PID]int{protocols.Coordinator: 3}, MaxSteps: 5000})
	if res2.AllLiveDecided {
		t.Error("participants decided without the coordinator's COMMIT")
	}
}

func TestThreePhaseAllInitialConfigsUnivalent(t *testing.T) {
	census, err := explore.CensusInitial(protocols.NewThreePhaseCommit(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if census.Bivalent != nil {
		t.Error("3PC has a bivalent initial configuration; it should be input-determined")
	}
	if !census.AllExact {
		t.Error("3PC census not exact")
	}
	if census.Counts[explore.OneValent] != 1 {
		t.Errorf("counts = %v, want exactly one 1-valent (111)", census.Counts)
	}
}

func TestThreePhaseAgreement(t *testing.T) {
	rep, err := explore.CheckPartialCorrectness(protocols.NewThreePhaseCommit(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AgreementHolds || !rep.Complete {
		t.Errorf("agreement=%v complete=%v", rep.AgreementHolds, rep.Complete)
	}
	if !rep.Nontrivial {
		t.Error("3PC reported trivial")
	}
}
