package dls_test

import (
	"math"
	"testing"

	"github.com/flpsim/flp/internal/dls"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

func TestHostileAdversaryBlocksUntilGST(t *testing.T) {
	opt := dls.Options{N: 3, F: 1, GST: 10, DropProb: 1.0, Seed: 1}
	res, err := dls.Run(opt, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDecisionRound != 0 && res.FirstDecisionRound < opt.GST {
		t.Errorf("decided in round %d, before GST %d, under a fully hostile adversary",
			res.FirstDecisionRound, opt.GST)
	}
	if !res.AllLiveDecided(opt) {
		t.Error("did not decide after GST")
	}
	if res.FirstDecisionRound < opt.GST {
		t.Errorf("first decision round %d < GST %d", res.FirstDecisionRound, opt.GST)
	}
	if !res.Agreement {
		t.Error("agreement violated")
	}
}

func TestDecidesWithinOneRotationAfterGST(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		opt := dls.Options{N: n, F: (n - 1) / 2, GST: 5, DropProb: 1.0, Seed: 3}
		in := make(model.Inputs, n)
		for i := 0; i < n/2; i++ {
			in[i] = 1
		}
		res, err := dls.Run(opt, in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllLiveDecided(opt) {
			t.Fatalf("N=%d: not all decided", n)
		}
		if res.FirstDecisionRound >= opt.GST+n {
			t.Errorf("N=%d: first decision at round %d, want within one rotation after GST %d",
				n, res.FirstDecisionRound, opt.GST)
		}
	}
}

func TestAgreementUnderLossyPreGST(t *testing.T) {
	// Random pre-GST message loss must never break agreement or validity.
	for seed := int64(0); seed < 30; seed++ {
		opt := dls.Options{N: 5, F: 2, GST: 8, DropProb: 0.6, Seed: seed,
			CrashRound: map[int]int{1: 3, 4: 0}}
		in := model.Inputs{0, 1, 1, 0, 1}
		res, err := dls.Run(opt, in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: agreement violated: %v", seed, res.Decisions)
		}
		if !res.AllLiveDecided(opt) {
			t.Fatalf("seed %d: liveness after GST failed", seed)
		}
		for _, v := range res.Decisions {
			if in.Count(v) == 0 {
				t.Fatalf("seed %d: decided %v which nobody proposed", seed, v)
			}
		}
	}
}

func TestEarlyDecisionWithBenignNetwork(t *testing.T) {
	// DropProb 0 means the network is effectively synchronous from round
	// 1: decision should come almost immediately, well before GST.
	opt := dls.Options{N: 3, F: 1, GST: 50, DropProb: 0, Seed: 1}
	res, err := dls.Run(opt, model.Inputs{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDecisionRound == 0 || res.FirstDecisionRound > 3 {
		t.Errorf("benign network decided at round %d, want ≤ 3", res.FirstDecisionRound)
	}
	if v, ok := decidedValue(res); !ok || v != model.V1 {
		t.Errorf("unanimous 1 decided %v (ok=%v)", v, ok)
	}
}

func TestCrashedCoordinatorSkipped(t *testing.T) {
	// Kill process 0 (= coordinator of rounds ≡ 0 mod N) immediately; the
	// rotation must still decide via the surviving coordinators.
	opt := dls.Options{N: 3, F: 1, GST: 1, DropProb: 0, Seed: 1,
		CrashRound: map[int]int{0: 0}}
	res, err := dls.Run(opt, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided(opt) {
		t.Error("survivors did not decide with a dead coordinator in rotation")
	}
	if _, ok := res.Decisions[0]; ok {
		t.Error("dead process decided")
	}
}

func TestUnanimousValidity(t *testing.T) {
	for _, v := range []model.Value{model.V0, model.V1} {
		opt := dls.Options{N: 5, F: 2, GST: 4, DropProb: 0.5, Seed: 9}
		res, err := dls.Run(opt, model.UniformInputs(5, v))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := decidedValue(res); !ok || got != v {
			t.Errorf("unanimous %v: decided %v (ok=%v)", v, got, ok)
		}
	}
}

func TestCoordinatorHearsItself(t *testing.T) {
	// Round 1's coordinator is p1, and N-F = 2. The adversary loses every
	// message it can, its own messages to itself included, except one per
	// sub-round: p0's report, p1's proposal to p0, and p0's ack. p1's own
	// report, proposal and ack still arrive, so it has both quorums and
	// decides in round 1, long before GST; nobody else hears the decision.
	s, err := dls.System(dls.Options{N: 3, F: 1, GST: 10}, model.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	all := ^uint64(0)
	through := [][]uint64{
		{all &^ (1 << 1), all, all}, // reports: p0's reaches p1
		{all, all &^ 1, all},        // proposal: p1's reaches p0
		{all &^ (1 << 1), all, all}, // acks: p0's reaches p1
		{all, all, all},             // decide: reaches nobody else
	}
	path := s.Sample(func(c syncround.Config) syncround.Choice {
		return syncround.Choice{Lost: through[c.Round%4]}
	})
	for p, pr := range path[4].Procs {
		if v, ok := pr.Decide(); ok != (p == 1) || ok && v != model.V0 {
			t.Errorf("after round 1: p%d decided %v (%v), want only p1, deciding p0's estimate 0", p, v, ok)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []dls.Options{
		{N: 1, F: 0, GST: 1},
		{N: 4, F: 2, GST: 1}, // 2F ≥ N
		{N: 3, F: 1, GST: 0}, // GST < 1
		{N: 3, F: 0, GST: 1, CrashRound: map[int]int{0: 1}}, // crashes > F
		{N: 3, F: 1, GST: 1, DropProb: -0.1},
		{N: 3, F: 1, GST: 1, DropProb: 1.5},
		{N: 3, F: 1, GST: 1, DropProb: math.NaN()},
		{N: 3, F: 1, GST: 1, CrashRound: map[int]int{3: 1}},  // victim outside [0, N)
		{N: 3, F: 1, GST: 1, CrashRound: map[int]int{-1: 1}}, // victim outside [0, N)
		{N: 3, F: 1, GST: 1, CrashRound: map[int]int{0: -1}}, // negative crash round
		{N: 65, F: 1, GST: 1},
	}
	for i, opt := range bad {
		if _, err := dls.Run(opt, make(model.Inputs, opt.N)); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if _, err := dls.Run(dls.Options{N: 3, F: 1, GST: 1}, model.Inputs{0, 1}); err == nil {
		t.Error("mismatched input count accepted")
	}
}

func decidedValue(r *dls.Result) (model.Value, bool) {
	seen := map[model.Value]bool{}
	for _, v := range r.Decisions {
		seen[v] = true
	}
	if len(seen) == 1 {
		for v := range seen {
			return v, true
		}
	}
	return 0, false
}
