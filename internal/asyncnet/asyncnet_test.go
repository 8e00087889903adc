package asyncnet_test

import (
	"testing"

	"github.com/flpsim/flp/internal/asyncnet"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/runtime"
)

func TestDriveWaitAllDecides(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	res, err := asyncnet.Drive(pr, model.Inputs{0, 1, 1},
		asyncnet.DriveOptions{RoundRobin: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided {
		t.Fatalf("concurrent run did not decide: %+v", res)
	}
	if res.Decisions[0] != model.V1 || len(res.Decisions) != 3 {
		t.Errorf("decisions = %v", res.Decisions)
	}
}

func TestDriveMatchesSequentialRoundRobin(t *testing.T) {
	// With the deterministic round-robin FIFO policy, the concurrent
	// executor must reach exactly the same decisions as the sequential
	// simulator — the goroutines are serialized by the controller.
	for _, tc := range []struct {
		pr model.Protocol
		in model.Inputs
	}{
		{protocols.NewWaitAll(3), model.Inputs{0, 1, 1}},
		{protocols.NewTwoPhaseCommit(3), model.Inputs{1, 1, 1}},
		{protocols.NewTwoPhaseCommit(3), model.Inputs{1, 0, 1}},
		{protocols.NewPaxosSynod(3), model.Inputs{0, 1, 1}},
		{protocols.NewBenOrDeterministic(3, 42), model.Inputs{0, 1, 1}},
	} {
		seq, err := runtime.Run(tc.pr, tc.in, runtime.NewRoundRobin(),
			runtime.RunOptions{MaxSteps: 50000})
		if err != nil {
			t.Fatal(err)
		}
		conc, err := asyncnet.Drive(tc.pr, tc.in,
			asyncnet.DriveOptions{RoundRobin: true, MaxSteps: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Decisions) != len(conc.Decisions) {
			t.Errorf("%s %s: sequential decided %v, concurrent %v",
				tc.pr.Name(), tc.in, seq.Decisions, conc.Decisions)
			continue
		}
		for p, v := range seq.Decisions {
			if conc.Decisions[p] != v {
				t.Errorf("%s %s: p%d sequential %v, concurrent %v",
					tc.pr.Name(), tc.in, p, v, conc.Decisions[p])
			}
		}
	}
}

func TestDriveRandomPolicyAgreesAcrossSeeds(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	for seed := int64(0); seed < 20; seed++ {
		res, err := asyncnet.Drive(pr, model.Inputs{0, 1, 1}, asyncnet.DriveOptions{MaxSteps: 100000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllLiveDecided || res.AgreementViolated {
			t.Errorf("seed %d: decided=%v violated=%v", seed, res.AllLiveDecided, res.AgreementViolated)
		}
	}
}

func TestCrashIsInvisibleUntilItMatters(t *testing.T) {
	// Crash one process of WaitAll mid-run; survivors block exactly as in
	// the sequential model. The goroutine is still alive — merely never
	// scheduled — which is the paper's unannounced death.
	pr := protocols.NewWaitAll(3)
	res, err := asyncnet.Drive(pr, model.Inputs{0, 1, 1},
		asyncnet.DriveOptions{RoundRobin: true, MaxSteps: 2000,
			CrashAfter: map[model.PID]int{2: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllLiveDecided {
		t.Error("WaitAll decided despite a crashed process")
	}
	if !res.Quiescent {
		t.Error("run should go quiescent once nothing useful remains")
	}
}

func TestDriveBenOrWithCrashes(t *testing.T) {
	pr := protocols.NewBenOrDeterministic(5, 9)
	res, err := asyncnet.Drive(pr, model.Inputs{0, 1, 1, 0, 1},
		asyncnet.DriveOptions{MaxSteps: 100000, Seed: 4,
			CrashAfter: map[model.PID]int{0: 0, 4: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided || res.AgreementViolated {
		t.Errorf("benor concurrent: decided=%v violated=%v", res.AllLiveDecided, res.AgreementViolated)
	}
}

func TestNetManualStepping(t *testing.T) {
	pr := protocols.NewWaitAll(2)
	net, err := asyncnet.New(pr, model.Inputs{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	if net.N() != 2 || net.Steps() != 0 {
		t.Fatalf("fresh net: N=%d steps=%d", net.N(), net.Steps())
	}
	// p0's first step broadcasts its vote.
	if err := net.Step(0, nil); err != nil {
		t.Fatal(err)
	}
	if net.StepsOf(0) != 1 {
		t.Errorf("StepsOf(0) = %d", net.StepsOf(0))
	}
	m, ok := net.Oldest(1)
	if !ok {
		t.Fatal("no pending message for p1 after p0's broadcast")
	}
	if err := net.Step(1, &m); err != nil {
		t.Fatal(err)
	}
	// p1 has p0's vote and its own: with n=2 it decides.
	if !net.Output(1).Decided() {
		t.Error("p1 undecided after hearing everyone")
	}
	if len(net.Pending(1)) != 0 {
		t.Errorf("p1 still has %d pending", len(net.Pending(1)))
	}
}

func TestNetRejectsBadSteps(t *testing.T) {
	pr := protocols.NewWaitAll(2)
	net, err := asyncnet.New(pr, model.Inputs{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	if err := net.Step(9, nil); err == nil {
		t.Error("step for nonexistent process accepted")
	}
	ghost := model.Message{To: 0, From: 1, Body: "V1"}
	if err := net.Step(0, &ghost); err == nil {
		t.Error("delivery of absent message accepted")
	}
	net.Crash(1)
	if net.Alive(1) {
		t.Error("crashed process reported alive")
	}
	if err := net.Step(1, nil); err == nil {
		t.Error("step granted to crashed process")
	}
}

// strayDest sends a message to process `to` on every step.
type strayDest struct {
	model.Protocol
	to model.PID
}

func (sp strayDest) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	return s, []model.Message{{To: sp.to, Body: "stray"}}
}

func TestNetRejectsSendsToNonexistentProcess(t *testing.T) {
	for _, to := range []model.PID{-1, 2} {
		net, err := asyncnet.New(strayDest{protocols.NewWaitAll(2), to}, model.Inputs{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Step(0, nil); err == nil {
			t.Errorf("send to process %d accepted", to)
		}
		net.Close()
	}
}

// nilInit starts every process in a nil state.
type nilInit struct{ model.Protocol }

func (nilInit) Init(model.PID, model.Value) model.State { return nil }

// decidedInit starts every process in the state its first step leads to,
// which for Trivial0 has already decided.
type decidedInit struct{ model.Protocol }

func (d decidedInit) Init(p model.PID, v model.Value) model.State {
	s, _ := d.Protocol.Step(p, d.Protocol.Init(p, v), nil)
	return s
}

// A Net refuses every initial configuration model.Initial refuses, with
// the same error, before any process goroutine runs.
func TestNetInputValidation(t *testing.T) {
	for _, tc := range []struct {
		what string
		pr   model.Protocol
		in   model.Inputs
	}{
		{"mismatched inputs", protocols.NewWaitAll(3), model.Inputs{0}},
		{"input value 7", protocols.NewWaitAll(3), model.Inputs{0, 7, 1}},
		{"nil initial state", nilInit{protocols.NewWaitAll(3)}, model.Inputs{0, 1, 1}},
		{"initially decided", decidedInit{protocols.NewTrivial0(3)}, model.Inputs{0, 1, 1}},
	} {
		_, want := model.Initial(tc.pr, tc.in)
		if want == nil {
			t.Fatalf("%s: model.Initial accepts it", tc.what)
		}
		net, err := asyncnet.New(tc.pr, tc.in)
		if err == nil {
			net.Close()
			t.Errorf("%s accepted", tc.what)
		} else if err.Error() != want.Error() {
			t.Errorf("%s: error %q, model.Initial says %q", tc.what, err, want)
		}
	}
}

func TestManyNetsInParallel(t *testing.T) {
	// Spin up several systems concurrently to exercise goroutine
	// lifecycles under the race detector.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seed int64) {
			pr := protocols.NewBenOrDeterministic(3, uint64(seed))
			res, err := asyncnet.Drive(pr, model.Inputs{0, 1, 1},
				asyncnet.DriveOptions{MaxSteps: 50000, Seed: seed})
			if err == nil && !res.AllLiveDecided {
				err = errDidNotDecide
			}
			done <- err
		}(int64(i))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

var errDidNotDecide = &driveError{"concurrent run did not decide"}

type driveError struct{ s string }

func (e *driveError) Error() string { return e.s }
