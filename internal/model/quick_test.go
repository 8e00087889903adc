package model_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// randomWalk applies up to steps random effectful events from an initial
// configuration of pr, returning the visited configurations and events.
func randomWalk(pr model.Protocol, in model.Inputs, steps int, seed int64) ([]*model.Config, []model.Event) {
	r := rand.New(rand.NewSource(seed))
	cfg := model.MustInitial(pr, in)
	configs := []*model.Config{cfg}
	var events []model.Event
	for i := 0; i < steps; i++ {
		var evs []model.Event
		for _, e := range model.Events(cfg) {
			if e.IsNull() && model.IsNoOp(pr, cfg, e) {
				continue
			}
			evs = append(evs, e)
		}
		if len(evs) == 0 {
			break
		}
		e := evs[r.Intn(len(evs))]
		cfg = model.MustApply(pr, cfg, e)
		configs = append(configs, cfg)
		events = append(events, e)
	}
	return configs, events
}

// Property: the buffer is conserved across every step — its size changes
// by exactly (sends - consumed).
func TestQuickBufferConservation(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := model.MustInitial(pr, model.Inputs{0, 1, 1})
		for i := 0; i < 40; i++ {
			var evs []model.Event
			for _, e := range model.Events(cfg) {
				if e.IsNull() && model.IsNoOp(pr, cfg, e) {
					continue
				}
				evs = append(evs, e)
			}
			if len(evs) == 0 {
				return true
			}
			e := evs[r.Intn(len(evs))]
			before := cfg.Buffer().Len()
			nc, sends, err := model.ApplyTraced(pr, cfg, e)
			if err != nil {
				return false
			}
			consumed := 0
			if e.Msg != nil {
				consumed = 1
			}
			if nc.Buffer().Len() != before-consumed+len(sends) {
				return false
			}
			cfg = nc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: replaying the recorded events of a walk from the same initial
// configuration reproduces the same final configuration (the model is
// fully deterministic given the schedule).
func TestQuickScheduleReplayDeterminism(t *testing.T) {
	pr := protocols.NewBenOrDeterministic(3, 5)
	f := func(seed int64) bool {
		configs, events := randomWalk(pr, model.Inputs{0, 1, 1}, 30, seed)
		replayed := model.MustApplySchedule(pr, configs[0], model.Schedule(events))
		return replayed.Equal(configs[len(configs)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the configuration key is the definition of a configuration —
// along a random walk, two configurations have equal KeyBytes exactly when
// they are SameState, and Equal agrees with both and is symmetric.
func TestQuickKeyEqualConsistency(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	f := func(seed int64) bool {
		configs, _ := randomWalk(pr, model.Inputs{0, 1, 1}, 20, seed)
		for i := range configs {
			for j := range configs {
				same := modeltest.SameState(configs[i], configs[j])
				if bytes.Equal(configs[i].KeyBytes(), configs[j].KeyBytes()) != same {
					return false
				}
				if configs[i].Equal(configs[j]) != same || configs[j].Equal(configs[i]) != same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every delivery event enumerated by Events names a message
// actually present in the buffer, and every pending message is enumerated.
func TestQuickEventEnumerationMatchesBuffer(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	f := func(seed int64) bool {
		configs, _ := randomWalk(pr, model.Inputs{0, 0, 1}, 25, seed)
		cfg := configs[len(configs)-1]
		deliveries := 0
		for _, e := range model.Events(cfg) {
			if e.Msg == nil {
				continue
			}
			deliveries++
			if !cfg.Buffer().Contains(*e.Msg) {
				return false
			}
		}
		distinct := len(cfg.Buffer().Messages())
		return deliveries == distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: single-event commutativity (the atomic core of Lemma 1) —
// two applicable events of different processes, where neither delivers a
// message produced by the other, commute.
func TestQuickSingleEventCommutativity(t *testing.T) {
	pr := protocols.NewWaitAll(4)
	f := func(seed int64) bool {
		configs, _ := randomWalk(pr, model.Inputs{0, 1, 1, 0}, 10, seed)
		cfg := configs[len(configs)-1]
		var evs []model.Event
		for _, e := range model.Events(cfg) {
			if e.IsNull() && model.IsNoOp(pr, cfg, e) {
				continue
			}
			evs = append(evs, e)
		}
		for i := 0; i < len(evs); i++ {
			for j := 0; j < len(evs); j++ {
				e1, e2 := evs[i], evs[j]
				if e1.P == e2.P {
					continue
				}
				a := model.MustApply(pr, model.MustApply(pr, cfg, e1), e2)
				b := model.MustApply(pr, model.MustApply(pr, cfg, e2), e1)
				if !a.Equal(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
