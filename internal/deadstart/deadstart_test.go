package deadstart_test

import (
	"errors"
	"testing"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/deadstart"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/runtime"
)

func crashes(victims ...model.PID) map[model.PID]int {
	m := make(map[model.PID]int, len(victims))
	for _, v := range victims {
		m[v] = 0 // initially dead
	}
	return m
}

func TestL(t *testing.T) {
	for n, want := range map[int]int{2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 9: 5} {
		if got := deadstart.New(n).L(); got != want {
			t.Errorf("L(N=%d) = %d, want %d", n, got, want)
		}
	}
}

func TestConformance(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		modeltest.CheckConformance(t, deadstart.New(4), model.Inputs{0, 1, 1, 0}, 150, seed)
		modeltest.CheckConformance(t, deadstart.New(5), model.Inputs{0, 1, 1, 0, 1}, 150, seed)
	}
}

func TestAllAliveDecides(t *testing.T) {
	pr := deadstart.New(5)
	for _, in := range []model.Inputs{
		{0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1},
		{0, 1, 1, 0, 1},
	} {
		res, err := runtime.Run(pr, in, runtime.NewRoundRobin(), runtime.RunOptions{MaxSteps: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllLiveDecided {
			t.Fatalf("inputs %s: did not decide", in)
		}
		if res.AgreementViolated {
			t.Fatalf("inputs %s: agreement violated", in)
		}
	}
}

func TestUnanimousValidity(t *testing.T) {
	pr := deadstart.New(5)
	for _, v := range []model.Value{model.V0, model.V1} {
		res, err := runtime.Run(pr, model.UniformInputs(5, v), runtime.NewRoundRobin(),
			runtime.RunOptions{MaxSteps: 5000, CrashAfter: crashes(1, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecidedValue(); !ok || got != v {
			t.Errorf("unanimous %v with dead minority: decided %v (ok=%v)", v, got, ok)
		}
	}
}

func TestMinorityDeadDecides(t *testing.T) {
	// Theorem 2's positive direction: with any minority initially dead,
	// all live processes decide the same value — across every dead subset
	// of size ≤ ⌊(N-1)/2⌋ and many schedules.
	pr := deadstart.New(5)
	in := model.Inputs{0, 1, 1, 0, 1}
	deadSets := [][]model.PID{
		{}, {0}, {2}, {4}, {0, 1}, {0, 4}, {1, 3}, {2, 3}, {3, 4},
	}
	for _, dead := range deadSets {
		for seed := int64(0); seed < 6; seed++ {
			agg, err := runtime.Run(pr, in, runtime.RandomFair{},
				runtime.RunOptions{MaxSteps: 20000, Seed: seed, CrashAfter: crashes(dead...)})
			if err != nil {
				t.Fatal(err)
			}
			if !agg.AllLiveDecided {
				t.Fatalf("dead=%v seed=%d: live processes did not decide", dead, seed)
			}
			if agg.AgreementViolated {
				t.Fatalf("dead=%v seed=%d: agreement violated: %v", dead, seed, agg.Decisions)
			}
			for _, d := range dead {
				if _, decided := agg.Decisions[d]; decided {
					t.Fatalf("dead process %d decided", d)
				}
			}
		}
	}
}

func TestDecisionsAgreeAcrossSchedules(t *testing.T) {
	// Different schedules may build different graphs G, so the decision
	// value may differ between runs — but within one run all processes
	// agree. Check a large ensemble for agreement (the paper's condition),
	// and that both decision values occur across the ensemble for mixed
	// inputs (nontriviality).
	pr := deadstart.New(5)
	agg, err := runtime.RunMany(pr, model.Inputs{0, 0, 1, 1, 1},
		func() runtime.Scheduler { return runtime.RandomFair{} },
		runtime.RunOptions{MaxSteps: 20000, CrashAfter: crashes(1)}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Violations != 0 {
		t.Fatalf("%d agreement violations", agg.Violations)
	}
	if agg.Decided != agg.Runs {
		t.Fatalf("only %d/%d runs decided", agg.Decided, agg.Runs)
	}
}

func TestMajorityDeadBlocks(t *testing.T) {
	// With only L-1 processes alive, stage 1 cannot complete: nobody ever
	// hears from L-1 others, so the protocol waits forever (it does not
	// decide wrongly).
	pr := deadstart.New(5) // L = 3
	res, err := runtime.Run(pr, model.Inputs{1, 1, 1, 1, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{MaxSteps: 5000, CrashAfter: crashes(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Blocked || len(res.Decisions) != 0 {
		t.Errorf("majority dead: blocked=%v decisions=%v, want blocked with none", res.Blocked, res.Decisions)
	}
	if !res.Quiescent {
		t.Error("blocked run should be quiescent (survivors have nothing to do)")
	}
}

func TestExactlyLAliveDecides(t *testing.T) {
	// The threshold case: exactly L alive suffices.
	pr := deadstart.New(5) // L = 3
	res, err := runtime.Run(pr, model.Inputs{0, 1, 0, 1, 0}, runtime.NewRoundRobin(),
		runtime.RunOptions{MaxSteps: 10000, CrashAfter: crashes(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided || res.AgreementViolated {
		t.Errorf("exactly L alive: decided=%v violated=%v", res.AllLiveDecided, res.AgreementViolated)
	}
}

func TestSmallestSystem(t *testing.T) {
	// N=2, L=2: both must be alive; a single death blocks it (consistent
	// with Theorem 1 — this protocol does not tolerate mid-run faults, and
	// with N=2 even an initial death leaves less than a majority).
	pr := deadstart.New(2)
	res, err := runtime.Run(pr, model.Inputs{0, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided || res.AgreementViolated {
		t.Errorf("N=2 all alive: decided=%v violated=%v", res.AllLiveDecided, res.AgreementViolated)
	}
	res2, err := runtime.Run(pr, model.Inputs{0, 1}, runtime.NewRoundRobin(),
		runtime.RunOptions{MaxSteps: 2000, CrashAfter: crashes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Blocked {
		t.Error("N=2 with one dead should block")
	}
}

func TestLargerSystem(t *testing.T) {
	pr := deadstart.New(9) // L = 5
	in := model.Inputs{0, 1, 0, 1, 0, 1, 0, 1, 1}
	res, err := runtime.Run(pr, in, runtime.RandomFair{},
		runtime.RunOptions{MaxSteps: 100000, Seed: 11, CrashAfter: crashes(0, 2, 4, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided || res.AgreementViolated {
		t.Errorf("N=9, 4 dead: decided=%v violated=%v decisions=%v",
			res.AllLiveDecided, res.AgreementViolated, res.Decisions)
	}
}

func TestAdversaryCannotStallByDelayAlone(t *testing.T) {
	// The Theorem 1 / Theorem 2 boundary, executed. The protocol's mixed-
	// input initial configurations are bivalent (who hears whom decides
	// the outcome), so the adversary starts happily — but it is a pure
	// delay adversary: it must keep every process stepping and deliver
	// every oldest message each rotation. Since the protocol sends only
	// finitely many messages and tolerates no mid-run deaths, those forced
	// deliveries eventually resolve the graph and no bivalence-preserving
	// extension exists: the stage search must fail rather than decide.
	pr := deadstart.New(3)
	probe := explore.ProbeOptions{}
	adv := adversary.New(pr, adversary.Options{
		Stages:  40,
		Probe:   &probe,
		Search:  explore.Options{MaxConfigs: 3000},
		Valency: explore.Options{MaxConfigs: 2000},
	})
	res, err := adv.RunFromInputs(model.Inputs{0, 1, 1})
	var serr *adversary.StageError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want StageError (delay alone cannot stall Theorem 2's protocol)", err)
	}
	if res.Final.DecidedCount() != 0 {
		t.Error("the partial run must still be decision-free")
	}
	if len(res.Stages) == 0 {
		t.Error("the adversary should sustain at least the opening stages")
	}
}

func TestName(t *testing.T) {
	if deadstart.New(5).Name() != "deadstart(n=5)" {
		t.Errorf("Name = %q", deadstart.New(5).Name())
	}
}
