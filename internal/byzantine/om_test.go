package byzantine_test

import (
	"testing"

	"github.com/flpsim/flp/internal/byzantine"
	"github.com/flpsim/flp/internal/model"
)

// silent is a traitor that never delivers (modeled as sending the default
// value, exactly the "if no value received, use the default" rule of the
// paper).
func silent(_ []int, _ int, _ model.Value) model.Value { return byzantine.DefaultOrder }

func run(t *testing.T, cfg byzantine.Config, order model.Value) *byzantine.Result {
	t.Helper()
	res, err := byzantine.Run(cfg, order)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOM0NoTraitors(t *testing.T) {
	cfg := byzantine.Config{N: 4, M: 0}
	res := run(t, cfg, model.V1)
	if !res.IC1(cfg) || !res.IC2(cfg, model.V1) {
		t.Errorf("OM(0) without traitors fails IC: %v", res.Decisions)
	}
	if res.Messages != 3 {
		t.Errorf("messages = %d, want 3", res.Messages)
	}
}

func TestOM1FourGeneralsTraitorLieutenant(t *testing.T) {
	for _, strat := range []byzantine.Strategy{byzantine.Flip, silent, byzantine.Split} {
		for _, order := range []model.Value{model.V0, model.V1} {
			cfg := byzantine.Config{N: 4, M: 1, Traitors: map[int]bool{2: true}, Strategy: strat}
			res := run(t, cfg, order)
			if !res.IC1(cfg) {
				t.Errorf("IC1 violated with traitor lieutenant: %v", res.Decisions)
			}
			if !res.IC2(cfg, order) {
				t.Errorf("IC2 violated with loyal commander (order %v): %v", order, res.Decisions)
			}
		}
	}
}

func TestOM1FourGeneralsTraitorCommander(t *testing.T) {
	for _, strat := range []byzantine.Strategy{byzantine.Flip, silent, byzantine.Split} {
		cfg := byzantine.Config{N: 4, M: 1, Traitors: map[int]bool{0: true}, Strategy: strat}
		res := run(t, cfg, model.V1)
		if !res.IC1(cfg) {
			t.Errorf("IC1 violated with traitor commander: %v", res.Decisions)
		}
		// IC2 vacuous for a traitorous commander.
		if !res.IC2(cfg, model.V1) {
			t.Error("IC2 not vacuous for traitor commander")
		}
	}
}

func TestThreeGeneralsImpossible(t *testing.T) {
	// n = 3, m = 1 violates n > 3m; the classic impossibility. The loyal
	// commander orders "attack" (1), the traitor lieutenant relays
	// "retreat" — the loyal lieutenant sees a 1-1 tie, falls back to the
	// default, and disobeys its loyal commander: IC2 is violated.
	cfg := byzantine.Config{N: 3, M: 1, Traitors: map[int]bool{2: true}, Strategy: byzantine.Flip}
	res := run(t, cfg, model.V1)
	if res.IC2(cfg, model.V1) {
		t.Fatalf("three generals satisfied IC2 (%v); the impossibility demo is broken", res.Decisions)
	}
}

func TestOM2SevenGenerals(t *testing.T) {
	// n = 7 > 3m = 6: two traitors in every position mix.
	traitorSets := []map[int]bool{
		{1: true, 2: true},
		{0: true, 3: true},
		{5: true, 6: true},
	}
	for _, traitors := range traitorSets {
		for _, strat := range []byzantine.Strategy{byzantine.Flip, byzantine.Split, silent} {
			for _, order := range []model.Value{model.V0, model.V1} {
				cfg := byzantine.Config{N: 7, M: 2, Traitors: traitors, Strategy: strat}
				res := run(t, cfg, order)
				if !res.IC1(cfg) {
					t.Errorf("IC1 violated (traitors %v, order %v): %v", traitors, order, res.Decisions)
				}
				if !res.IC2(cfg, order) {
					t.Errorf("IC2 violated (traitors %v, order %v): %v", traitors, order, res.Decisions)
				}
			}
		}
	}
}

func TestMessageGrowth(t *testing.T) {
	// OM(m) sends (n-1)(n-1)... roughly n^m messages; verify strict growth
	// in m and the known closed form for small cases:
	// messages(m) = (n-1) * (1 + (n-2) * (1 + (n-3) * ...)) depth m.
	prev := 0
	for m := 0; m <= 3; m++ {
		cfg := byzantine.Config{N: 10, M: m}
		res := run(t, cfg, model.V1)
		if res.Messages <= prev {
			t.Errorf("messages did not grow: OM(%d) = %d, OM(%d) = %d", m-1, prev, m, res.Messages)
		}
		prev = res.Messages
	}
	// Exact count for OM(1), n=4: 3 + 3*2 = 9.
	res := run(t, byzantine.Config{N: 4, M: 1}, model.V1)
	if res.Messages != 9 {
		t.Errorf("OM(1) n=4 messages = %d, want 9", res.Messages)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := byzantine.Run(byzantine.Config{N: 0, M: 0}, model.V0); err == nil {
		t.Error("empty army accepted")
	}
	if _, err := byzantine.Run(byzantine.Config{N: 4, M: -1}, model.V0); err == nil {
		t.Error("negative depth accepted")
	}
	over := byzantine.Config{N: 4, M: 1, Traitors: map[int]bool{1: true, 2: true}}
	if _, err := byzantine.Run(over, model.V0); err == nil {
		t.Error("too many traitors accepted")
	}
}

func TestDefaultStrategyIsFlip(t *testing.T) {
	cfg := byzantine.Config{N: 4, M: 1, Traitors: map[int]bool{3: true}}
	res := run(t, cfg, model.V1)
	if !res.IC1(cfg) || !res.IC2(cfg, model.V1) {
		t.Errorf("default strategy run violated IC: %v", res.Decisions)
	}
}

func TestExhaustiveOM1AllTraitorPositionsAndOrders(t *testing.T) {
	for traitor := 0; traitor < 4; traitor++ {
		for _, order := range []model.Value{model.V0, model.V1} {
			cfg := byzantine.Config{N: 4, M: 1,
				Traitors: map[int]bool{traitor: true}, Strategy: byzantine.Split}
			res := run(t, cfg, order)
			if !res.IC1(cfg) || !res.IC2(cfg, order) {
				t.Errorf("traitor=%d order=%v: IC violated: %v", traitor, order, res.Decisions)
			}
		}
	}
}
