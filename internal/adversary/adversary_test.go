package adversary_test

import (
	"errors"
	"testing"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

func paxosOptions(stages int) adversary.Options {
	probe := explore.ProbeOptions{}
	return adversary.Options{
		Stages:  stages,
		Search:  explore.Options{MaxConfigs: 2000},
		Valency: explore.Options{MaxConfigs: 1500},
		Probe:   &probe,
	}
}

func TestAdversaryLivelocksPaxos(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(9))
	res, err := adv.Run()
	if err != nil {
		t.Fatalf("adversary failed: %v", err)
	}
	if got := len(res.Stages); got != 9 {
		t.Fatalf("completed %d stages, want 9", got)
	}
	if res.Final.DecidedCount() != 0 {
		t.Fatalf("%d processes decided; the run must be non-deciding", res.Final.DecidedCount())
	}

	rep, err := adversary.Verify(pr, res)
	if err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if rep.Rotations != 3 {
		t.Errorf("rotations = %d, want 3", rep.Rotations)
	}
	// Every process took at least one step per completed rotation: no
	// process looks faulty.
	if rep.MinStepsPerProcess < rep.Rotations {
		t.Errorf("min steps per process = %d < rotations %d", rep.MinStepsPerProcess, rep.Rotations)
	}
}

func TestAdversaryRunFromInputs(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(6))
	res, err := adv.RunFromInputs(model.Inputs{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs.String() != "001" {
		t.Errorf("inputs = %s", res.Inputs)
	}
	if _, err := adversary.Verify(pr, res); err != nil {
		t.Error(err)
	}
}

func TestAdversaryRejectsUnivalentInputs(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(3))
	_, err := adv.RunFromInputs(model.Inputs{0, 0, 0})
	if !errors.Is(err, adversary.ErrNoBivalentInitial) {
		t.Errorf("unanimous inputs: err = %v, want ErrNoBivalentInitial", err)
	}
}

func TestAdversaryRefusesNonFaultTolerantProtocols(t *testing.T) {
	// WaitAll and 2PC escape the theorem by not being fault tolerant:
	// every initial configuration is univalent, so the adversary has no
	// bivalent starting point.
	for _, pr := range []model.Protocol{
		protocols.NewWaitAll(3),
		protocols.NewTwoPhaseCommit(3),
	} {
		adv := adversary.New(pr, adversary.Options{Stages: 3})
		if _, err := adv.Run(); !errors.Is(err, adversary.ErrNoBivalentInitial) {
			t.Errorf("%s: err = %v, want ErrNoBivalentInitial", pr.Name(), err)
		}
	}
}

func TestAdversaryFailsOnAgreementViolators(t *testing.T) {
	// NaiveMajority escapes by violating agreement: every admissible run
	// decides (inconsistently at times), so no stage can keep the run
	// decision-free once votes start flowing. The adversary must report a
	// stage failure rather than construct a bogus non-deciding run.
	pr := protocols.NewNaiveMajority(3)
	adv := adversary.New(pr, adversary.Options{Stages: 10})
	res, err := adv.Run()
	var serr *adversary.StageError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want StageError", err)
	}
	if res == nil || res.Final.DecidedCount() != 0 {
		t.Error("partial result should still be decision-free")
	}
}

func TestAdversaryLongRunOnPaxos(t *testing.T) {
	if testing.Short() {
		t.Skip("long adversarial run")
	}
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(15))
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := adversary.Verify(pr, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecidedCount != 0 || rep.Rotations != 5 {
		t.Errorf("decided=%d rotations=%d, want 0 and 5", rep.DecidedCount, rep.Rotations)
	}
}

func TestAdversaryStallsFixedTapeBenOr(t *testing.T) {
	// Ben-Or terminates with probability 1 over coin tapes — but each
	// fixed tape is a deterministic automaton, and FLP applies to it: the
	// adversary finds and sustains a non-deciding admissible run.
	pr := protocols.NewBenOrDeterministic(3, 0)
	probe := explore.ProbeOptions{}
	adv := adversary.New(pr, adversary.Options{
		Stages:  4,
		Probe:   &probe,
		Search:  explore.Options{MaxConfigs: 1500},
		Valency: explore.Options{MaxConfigs: 1000},
	})
	res, err := adv.RunFromInputs(model.Inputs{0, 0, 1})
	if err != nil {
		t.Fatalf("adversary could not stall fixed-tape Ben-Or: %v", err)
	}
	rep, err := adversary.Verify(pr, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecidedCount != 0 || rep.Stages != 4 {
		t.Errorf("decided=%d stages=%d, want 0 and 4", rep.DecidedCount, rep.Stages)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(4))
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Wrong stage order.
	tampered := *res
	tampered.Stages = append([]adversary.Stage(nil), res.Stages...)
	tampered.Stages[0], tampered.Stages[1] = tampered.Stages[1], tampered.Stages[0]
	if _, err := adversary.Verify(pr, &tampered); err == nil {
		t.Error("verification accepted swapped stages")
	}

	// Dropped stage.
	tampered2 := *res
	tampered2.Stages = res.Stages[1:]
	if _, err := adversary.Verify(pr, &tampered2); err == nil {
		t.Error("verification accepted a dropped stage")
	}

	// Wrong final configuration.
	tampered3 := *res
	other := model.MustInitial(pr, res.Inputs)
	tampered3.Final = other
	if _, err := adversary.Verify(pr, &tampered3); err == nil {
		t.Error("verification accepted a wrong final configuration")
	}
}

func TestStageErrorMessage(t *testing.T) {
	err := &adversary.StageError{Stage: 3, Process: 1, Event: model.NullEvent(1)}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}

func TestExtendContinuesTheRun(t *testing.T) {
	// The paper's run is the limit of infinitely many stages; Extend is
	// the "one more rotation" operation. An initial 3-stage run extended
	// by 3 must verify exactly like a 6-stage run: same discipline, still
	// decision-free.
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(3))
	res, err := adv.RunFromInputs(model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 3 {
		t.Fatalf("initial run has %d stages", len(res.Stages))
	}
	if _, err := adv.Extend(res, 3); err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 6 {
		t.Fatalf("extended run has %d stages, want 6", len(res.Stages))
	}
	rep, err := adversary.Verify(pr, res)
	if err != nil {
		t.Fatalf("extended run fails verification: %v", err)
	}
	if rep.DecidedCount != 0 || rep.Rotations != 2 {
		t.Errorf("decided=%d rotations=%d, want 0 and 2", rep.DecidedCount, rep.Rotations)
	}
	// And again — the limit is built one rotation at a time.
	if _, err := adv.Extend(res, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := adversary.Verify(pr, res); err != nil {
		t.Fatal(err)
	}
}

func TestExtendRejectsTamperedPrefix(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(2))
	res, err := adv.RunFromInputs(model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Final = model.MustInitial(pr, res.Inputs) // corrupt
	if _, err := adv.Extend(res, 1); err == nil {
		t.Error("Extend accepted a result whose prefix does not replay to its final configuration")
	}
}

func TestResultAccessors(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	adv := adversary.New(pr, paxosOptions(3))
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() != len(res.Schedule) {
		t.Errorf("Steps = %d, schedule has %d events", res.Steps(), len(res.Schedule))
	}
	rep, err := adversary.Verify(pr, res)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range rep.StepsPerProcess {
		total += s
	}
	if total != res.Steps() {
		t.Errorf("per-process steps sum %d != %d", total, res.Steps())
	}
}

// TestAdversaryDeterministicAcrossWorkers pins the parallel-engine
// contract at the adversary layer: the staged construction must commit the
// same events via the same schedules — and reach the same final
// configuration — for any exploration worker count.
func TestAdversaryDeterministicAcrossWorkers(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	run := func(workers int) *adversary.Result {
		opt := paxosOptions(6)
		opt.Workers = workers
		adv := adversary.New(pr, opt)
		res, err := adv.RunFromInputs(model.Inputs{0, 1, 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := run(1)
	for _, w := range []int{4, 8} {
		par := run(w)
		if seq.Schedule.String() != par.Schedule.String() {
			t.Errorf("workers=%d: schedule diverged\n sequential: %s\n parallel:   %s",
				w, seq.Schedule, par.Schedule)
		}
		if !seq.Final.Equal(par.Final) {
			t.Errorf("workers=%d: final configuration diverged", w)
		}
		if len(seq.Stages) != len(par.Stages) {
			t.Errorf("workers=%d: stage count %d, sequential %d", w, len(par.Stages), len(seq.Stages))
		}
	}
}
