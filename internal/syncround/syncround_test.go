package syncround_test

import (
	"math/rand"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

func TestFloodSetNoCrashes(t *testing.T) {
	for _, in := range model.AllInputs(3) {
		res, err := syncround.Run(syncround.FloodSet{}, in, 1, syncround.CrashPattern{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || len(res.Decisions) != 3 {
			t.Fatalf("inputs %s: agreement=%v decisions=%v", in, res.Agreement, res.Decisions)
		}
		want := model.V1
		if in.Count(model.V0) > 0 {
			want = model.V0 // min(W) rule: 0 wins when present
		}
		if v, _ := res.DecidedValue(); v != want {
			t.Errorf("inputs %s: decided %v, want %v", in, v, want)
		}
		if res.Rounds != 2 {
			t.Errorf("rounds = %d, want f+1 = 2", res.Rounds)
		}
	}
}

func TestFloodSetUnanimousValidity(t *testing.T) {
	for _, v := range []model.Value{model.V0, model.V1} {
		res, err := syncround.Run(syncround.FloodSet{}, model.UniformInputs(5, v), 2,
			syncround.CrashPattern{
				Round:   map[int]int{0: 1, 3: 2},
				Partial: map[int]map[int]bool{0: {1: true}, 3: {}},
			})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecidedValue(); !ok || got != v {
			t.Errorf("unanimous %v: decided %v (ok=%v)", v, got, ok)
		}
	}
}

func TestFloodSetAgreementUnderRandomCrashes(t *testing.T) {
	// Exhaustive-ish: many random crash patterns with the full budget f,
	// all input mixes, several system sizes. Agreement must never break.
	r := rand.New(rand.NewSource(99))
	for _, nf := range [][2]int{{3, 1}, {4, 1}, {5, 2}, {7, 3}} {
		n, f := nf[0], nf[1]
		rounds := f + 1
		for trial := 0; trial < 120; trial++ {
			in := make(model.Inputs, n)
			for i := range in {
				in[i] = model.Value(r.Intn(2))
			}
			cp := syncround.RandomCrashPattern(n, f, rounds, r)
			res, err := syncround.Run(syncround.FloodSet{}, in, f, cp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Agreement {
				t.Fatalf("n=%d f=%d trial=%d: disagreement %v under %+v (inputs %s)",
					n, f, trial, res.Decisions, cp, in)
			}
			if len(res.Decisions) < n-f {
				t.Fatalf("n=%d f=%d: only %d survivors decided", n, f, len(res.Decisions))
			}
			// Validity: decision is someone's input.
			if v, ok := res.DecidedValue(); ok && in.Count(v) == 0 {
				t.Fatalf("decided %v which nobody proposed", v)
			}
		}
	}
}

func TestFloodSetExhaustiveSmall(t *testing.T) {
	// n=3, f=1: enumerate every victim, crash round, partial-delivery
	// subset, and input assignment. 3 × 3 × 4 × 8 = 288 executions.
	for victim := 0; victim < 3; victim++ {
		for crashRound := 0; crashRound <= 2; crashRound++ {
			for subset := 0; subset < 4; subset++ {
				partial := map[int]bool{}
				others := []int{}
				for q := 0; q < 3; q++ {
					if q != victim {
						others = append(others, q)
					}
				}
				if subset&1 != 0 {
					partial[others[0]] = true
				}
				if subset&2 != 0 {
					partial[others[1]] = true
				}
				cp := syncround.CrashPattern{
					Round:   map[int]int{victim: crashRound},
					Partial: map[int]map[int]bool{victim: partial},
				}
				for _, in := range model.AllInputs(3) {
					res, err := syncround.Run(syncround.FloodSet{}, in, 1, cp)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Agreement {
						t.Fatalf("victim=%d round=%d subset=%d inputs=%s: disagreement %v",
							victim, crashRound, subset, in, res.Decisions)
					}
				}
			}
		}
	}
}

func TestTruncatedFloodSetCanDisagree(t *testing.T) {
	// The f+1 bound is tight: with f = 1 crash and only 1 round, a crash
	// that reaches one survivor but not the other splits the decision.
	cp := syncround.CrashPattern{
		Round:   map[int]int{2: 1},
		Partial: map[int]map[int]bool{2: {1: true}},
	}
	res, err := syncround.Run(syncround.TruncatedFloodSet{R: 1}, model.Inputs{1, 1, 0}, 1, cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreement {
		t.Fatal("expected disagreement after only f rounds; the bound demo is broken")
	}
	// The same pattern under full FloodSet agrees.
	res2, err := syncround.Run(syncround.FloodSet{}, model.Inputs{1, 1, 0}, 1, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Agreement {
		t.Fatal("full FloodSet disagreed")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := syncround.Run(syncround.FloodSet{}, model.Inputs{0}, 1, syncround.CrashPattern{}); err == nil {
		t.Error("single-process run accepted")
	}
	// FloodSet on three processes with f = 1 runs rounds 1 and 2.
	for what, cp := range map[string]syncround.CrashPattern{
		"crash pattern exceeding the budget": {Round: map[int]int{0: 1, 1: 1}},
		"victim 3":                           {Round: map[int]int{3: 1}},
		"victim -1":                          {Round: map[int]int{-1: 0}},
		"partial victim 5":                   {Partial: map[int]map[int]bool{5: {0: true}}},
		"recipient 5":                        {Round: map[int]int{0: 1}, Partial: map[int]map[int]bool{0: {1: true, 5: true}}},
		"recipient -1":                       {Round: map[int]int{0: 2}, Partial: map[int]map[int]bool{0: {-1: true}}},
		"crash round 3":                      {Round: map[int]int{0: 3}},
		"crash round -1":                     {Round: map[int]int{0: -1}},
	} {
		if _, err := syncround.Run(syncround.FloodSet{}, model.Inputs{0, 1, 1}, 1, cp); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestInitiallyDeadSendNothing(t *testing.T) {
	cp := syncround.CrashPattern{Round: map[int]int{0: 0}, Partial: map[int]map[int]bool{0: {}}}
	res, err := syncround.Run(syncround.FloodSet{}, model.Inputs{0, 1, 1}, 1, cp)
	if err != nil {
		t.Fatal(err)
	}
	// p0's value 0 never reaches anyone: survivors decide 1.
	if v, ok := res.DecidedValue(); !ok || v != model.V1 {
		t.Errorf("decided %v (ok=%v), want 1", v, ok)
	}
	if _, decided := res.Decisions[0]; decided {
		t.Error("initially dead process decided")
	}
}

func TestMessageCounting(t *testing.T) {
	res, err := syncround.Run(syncround.FloodSet{}, model.Inputs{0, 1, 1}, 1, syncround.CrashPattern{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 senders × 3 recipients × 2 rounds (self-delivery included).
	if res.Messages != 18 {
		t.Errorf("messages = %d, want 18", res.Messages)
	}
}

func TestRandomCrashPatternShape(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cp := syncround.RandomCrashPattern(6, 2, 3, r)
	if cp.Crashes() != 2 {
		t.Errorf("Crashes = %d, want 2", cp.Crashes())
	}
	for v, round := range cp.Round {
		if round < 0 || round > 3 {
			t.Errorf("victim %d crashes in round %d, out of range", v, round)
		}
		if cp.Partial[v][v] {
			t.Error("victim delivers to itself in partial set")
		}
	}
}
