package explore_test

import (
	"math/rand"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

func in(vals ...model.Value) model.Inputs { return model.Inputs(vals) }

func TestExploreVisitsRootFirst(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	first := true
	rootSeen := false
	complete, visited := explore.Explore(pr, c, explore.Options{}, nil,
		func(cfg *model.Config, depth int, path func() model.Schedule) bool {
			if first {
				first = false
				rootSeen = cfg.Equal(c) && depth == 0 && len(path()) == 0
			}
			return false
		})
	if !rootSeen {
		t.Error("root configuration not visited first at depth 0")
	}
	if !complete {
		t.Error("exploration of a finite protocol did not complete")
	}
	if visited < 10 {
		t.Errorf("visited only %d configurations", visited)
	}
}

func TestExplorePathsAreValid(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	checked := 0
	explore.Explore(pr, c, explore.Options{}, nil,
		func(cfg *model.Config, depth int, path func() model.Schedule) bool {
			sigma := path()
			if len(sigma) != depth {
				t.Fatalf("path length %d != depth %d", len(sigma), depth)
			}
			got, err := model.ApplySchedule(pr, c, sigma)
			if err != nil {
				t.Fatalf("path not applicable: %v", err)
			}
			if !got.Equal(cfg) {
				t.Fatalf("path does not lead to visited configuration")
			}
			checked++
			return checked >= 40 // sampling the first 40 suffices
		})
	if checked < 40 {
		t.Errorf("only %d configurations checked", checked)
	}
}

func TestExploreBudget(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	complete, visited := explore.Explore(pr, c, explore.Options{MaxConfigs: 10}, nil, nil)
	if complete {
		t.Error("truncated exploration reported complete")
	}
	if visited > 10 {
		t.Errorf("visited %d > budget 10", visited)
	}
}

func TestExploreAvoidEvent(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	avoid := model.NullEvent(0)
	explore.Explore(pr, c, explore.Options{}, &avoid,
		func(cfg *model.Config, _ int, path func() model.Schedule) bool {
			for _, e := range path() {
				if e.Same(avoid) {
					t.Fatal("avoided event appears in an exploration path")
				}
			}
			return false
		})
}

func TestReachable(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	target := model.MustApply(pr, model.MustApply(pr, c, model.NullEvent(0)), model.NullEvent(1))
	sigma, ok := explore.Reachable(pr, c, target, explore.Options{})
	if !ok {
		t.Fatal("known-reachable configuration reported unreachable")
	}
	if got := model.MustApplySchedule(pr, c, sigma); !got.Equal(target) {
		t.Error("witness schedule does not reach the target")
	}
	// A configuration of a different protocol instance is unreachable.
	other := model.MustInitial(pr, in(1, 1, 1))
	if _, ok := explore.Reachable(pr, c, other, explore.Options{}); ok {
		t.Error("initial configuration with different inputs reported reachable")
	}
}

func TestCountReachableFinite(t *testing.T) {
	pr := protocols.NewTwoPhaseCommit(3)
	c := model.MustInitial(pr, in(1, 1, 1))
	count, exact := explore.CountReachable(pr, c, explore.Options{})
	if !exact {
		t.Error("2PC exploration did not complete")
	}
	if count <= 1 {
		t.Errorf("reachable count = %d", count)
	}
}

func TestRandomDisjointSchedulesCommute(t *testing.T) {
	for _, pr := range []model.Protocol{
		protocols.NewNaiveMajority(4),
		protocols.NewWaitAll(4),
		protocols.NewTwoPhaseCommit(4),
	} {
		r := rand.New(rand.NewSource(7))
		c := model.MustInitial(pr, in(0, 1, 0, 1))
		for i := 0; i < 50; i++ {
			s1, s2 := explore.RandomDisjointSchedules(pr, c, r, 6)
			if err := explore.CheckCommutativity(pr, c, s1, s2); err != nil {
				t.Errorf("%s: Lemma 1 violated: %v\nσ1=%s\nσ2=%s", pr.Name(), err, s1, s2)
			}
		}
	}
}

func TestCheckCommutativityRejectsOverlap(t *testing.T) {
	pr := protocols.NewWaitAll(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	s := model.Schedule{model.NullEvent(0)}
	if err := explore.CheckCommutativity(pr, c, s, s); err == nil {
		t.Error("overlapping schedules accepted for a Lemma 1 check")
	}
}
