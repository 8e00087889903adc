package failuredetector_test

import (
	"testing"

	fd "github.com/flpsim/flp/internal/failuredetector"
	"github.com/flpsim/flp/internal/model"
)

func accurate() fd.Detector { return fd.EventuallyAccurate{StableAt: 0} }

func TestDecidesWithAccurateDetector(t *testing.T) {
	opt := fd.Options{N: 3, F: 1, Detector: accurate(), Lag: 2}
	res, err := fd.Run(opt, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided(opt) {
		t.Fatalf("did not decide: %+v", res)
	}
	if !res.Agreement {
		t.Error("agreement violated")
	}
	if res.DecisionRound != 0 {
		t.Errorf("decision round = %d, want 0 with a clean detector", res.DecisionRound)
	}
}

func TestSkipsCrashedCoordinators(t *testing.T) {
	// p0 and p1 (coordinators of rounds 0 and 1) are dead from the start;
	// an accurate detector skips straight to round 2.
	opt := fd.Options{N: 5, F: 2, Detector: accurate(), Lag: 2,
		CrashTick: map[int]int{0: 0, 1: 0}}
	res, err := fd.Run(opt, model.Inputs{0, 1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided(opt) || !res.Agreement {
		t.Fatalf("decided=%v agreement=%v", res.AllLiveDecided(opt), res.Agreement)
	}
	if res.DecisionRound != 2 {
		t.Errorf("decision round = %d, want 2 (first live coordinator)", res.DecisionRound)
	}
	if res.SkippedRounds != 2 {
		t.Errorf("skipped %d rounds, want 2", res.SkippedRounds)
	}
}

func TestParanoidDetectorLivelocks(t *testing.T) {
	// Complete but never accurate: every round is abandoned before the
	// proposal can arrive. No decision, ever — and no disagreement either.
	opt := fd.Options{N: 3, F: 1, Detector: fd.Paranoid{}, Lag: 2, MaxTicks: 3000}
	res, err := fd.Run(opt, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Fatalf("paranoid detector decided: %v", res.Decisions)
	}
	if !res.Agreement {
		t.Error("vacuous agreement broken")
	}
	if res.Rounds < 100 {
		t.Errorf("only %d rounds churned in 3000 ticks", res.Rounds)
	}
}

func TestBlindDetectorBlocksOnDeadCoordinator(t *testing.T) {
	// Accurate but not complete: when the round-0 coordinator is dead,
	// nobody can ever justify moving on — the paper's indistinguishability
	// of death and slowness, re-enacted.
	opt := fd.Options{N: 3, F: 1, Detector: fd.Blind{}, Lag: 2, MaxTicks: 3000,
		CrashTick: map[int]int{0: 0}}
	res, err := fd.Run(opt, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Fatalf("blind detector decided past a dead coordinator: %v", res.Decisions)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want to be stuck in round 0 forever", res.Rounds)
	}
}

func TestBlindDetectorFineWithoutCrashes(t *testing.T) {
	opt := fd.Options{N: 3, F: 1, Detector: fd.Blind{}, Lag: 2}
	res, err := fd.Run(opt, model.Inputs{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided(opt) || !res.Agreement {
		t.Errorf("blind detector without crashes: decided=%v", res.AllLiveDecided(opt))
	}
}

func TestNoisyDetectorEventuallyDecides(t *testing.T) {
	// Heavy suspicion noise until tick 60, then exact: rounds churn while
	// noisy, a decision lands within a rotation of stabilization, and
	// agreement holds across seeds throughout.
	for seed := int64(0); seed < 15; seed++ {
		det := fd.EventuallyAccurate{StableAt: 60, NoiseProb: 0.4, Seed: seed}
		opt := fd.Options{N: 5, F: 2, Detector: det, Lag: 3, MaxTicks: 5000,
			CrashTick: map[int]int{4: 10}}
		res, err := fd.Run(opt, model.Inputs{0, 1, 1, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllLiveDecided(opt) {
			t.Fatalf("seed %d: no decision after stabilization", seed)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: agreement violated", seed)
		}
		for _, v := range res.Decisions {
			if v != 0 && v != 1 {
				t.Fatalf("seed %d: absurd decision %v", seed, v)
			}
		}
	}
}

func TestUnanimousValidity(t *testing.T) {
	for _, v := range []model.Value{model.V0, model.V1} {
		opt := fd.Options{N: 5, F: 2, Detector: accurate(), Lag: 2,
			CrashTick: map[int]int{1: 0}}
		res, err := fd.Run(opt, model.UniformInputs(5, v))
		if err != nil {
			t.Fatal(err)
		}
		for p, got := range res.Decisions {
			if got != v {
				t.Errorf("unanimous %v: p%d decided %v", v, p, got)
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []fd.Options{
		{N: 1, F: 0, Detector: accurate(), Lag: 1},
		{N: 4, F: 2, Detector: accurate(), Lag: 1},
		{N: 3, F: 1, Lag: 1},                       // no detector
		{N: 3, F: 1, Detector: accurate(), Lag: 0}, // no lag
		{N: 3, F: 0, Detector: accurate(), Lag: 1, CrashTick: map[int]int{0: 0}},
		{N: 3, F: 1, Detector: accurate(), Lag: 1, CrashTick: map[int]int{3: 0}},  // victim outside [0, N)
		{N: 3, F: 1, Detector: accurate(), Lag: 1, CrashTick: map[int]int{-1: 5}}, // victim outside [0, N)
	}
	for i, opt := range cases {
		if _, err := fd.Run(opt, make(model.Inputs, opt.N)); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
	good := fd.Options{N: 3, F: 1, Detector: accurate(), Lag: 1}
	if _, err := fd.Run(good, model.Inputs{0, 1}); err == nil {
		t.Error("mismatched inputs accepted")
	}
}

func TestDetectorNames(t *testing.T) {
	if (fd.Paranoid{}).Name() == "" || (fd.Blind{}).Name() == "" ||
		(fd.EventuallyAccurate{}).Name() == "" {
		t.Error("detector names empty")
	}
}
