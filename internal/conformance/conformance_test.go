package conformance_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/conformance"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// TestCheckCases runs every case of enginetest's table through the harness,
// each under the kill its root's fingerprint scripts: the same Check covers
// hand-written and generated protocols, complete and truncated
// explorations, depth caps, avoided events, prefixes and early stops.
func TestCheckCases(t *testing.T) {
	for _, c := range enginetest.Cases(t) {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := conformance.Check(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckRejectsUnresolvableName pins the setup-error path: a protocol
// whose name the registry cannot resolve must fail as a harness error,
// not a Divergence.
func TestCheckRejectsUnresolvableName(t *testing.T) {
	err := conformance.Check(enginetest.Case{Protocol: "not-in-any-registry", N: 2, Inputs: enginetest.Alternating(2)})
	if err == nil {
		t.Fatal("Check accepted a name the workers cannot rebuild")
	}
	var div *conformance.Divergence
	if errors.As(err, &div) {
		t.Fatalf("setup failure misreported as a divergence: %v", err)
	}
}

// TestShrinkTableMinimizes drives the shrinker with a synthetic predicate
// ("at least one process holds input 1") and checks it reaches the
// predicate's actual minimum: every structural dial at its floor, every
// table entry inert, a single 1 bit left.
func TestShrinkTableMinimizes(t *testing.T) {
	sp := protogen.Derive(9, protogen.DefaultDials(4))
	inputs := enginetest.Alternating(sp.N)
	failing := func(s protogen.Spec, in model.Inputs) bool {
		return in.Count(model.V1) >= 1
	}
	if !failing(sp, inputs) {
		t.Fatal("predicate does not hold on the starting point")
	}
	min, minIn := conformance.Shrink(sp, inputs, failing, 100000)
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk spec invalid: %v", err)
	}
	if min.N != 2 || min.Phases != 1 || min.Regs != 1 || min.Alphabet != 1 {
		t.Errorf("structural dials not at floor: N=%d Phases=%d Regs=%d Alphabet=%d",
			min.N, min.Phases, min.Regs, min.Alphabet)
	}
	for i, tr := range min.Table {
		if len(tr.Sends) != 0 || tr.Decide != protogen.DecideNone {
			t.Errorf("entry %d not inert: %+v", i, tr)
		}
	}
	if minIn.Count(model.V1) != 1 || minIn.Count(model.V0) != len(minIn)-1 {
		t.Errorf("inputs not minimal: %v", minIn)
	}
	if min.Dials != nil {
		t.Error("shrunk spec kept its Derive provenance")
	}
	// The shrunk spec must still round-trip through its (j1) name.
	back, err := protogen.FromName(min.Name())
	if err != nil {
		t.Fatalf("shrunk spec name does not round-trip: %v", err)
	}
	if back.N != min.N || len(back.Table) != len(min.Table) {
		t.Error("shrunk spec name decoded to a different spec")
	}
}

// TestShrinkBenOrMinimizes is the Ben-Or analogue: rounds and thresholds
// descend to 1, the process count to 2.
func TestShrinkBenOrMinimizes(t *testing.T) {
	d := protogen.Dials{Template: protogen.TemplateBenOr, N: 4, MaxRound: 3}
	sp := protogen.Derive(13, d)
	inputs := enginetest.Alternating(sp.N)
	failing := func(s protogen.Spec, in model.Inputs) bool {
		return s.Template == protogen.TemplateBenOr
	}
	min, minIn := conformance.Shrink(sp, inputs, failing, 100000)
	if min.N != 2 || min.MaxRound != 1 || min.WaitNeed != 1 || min.ProposeNeed != 1 || min.DecideNeed != 1 {
		t.Errorf("not minimal: N=%d MaxRound=%d thresholds=(%d,%d,%d)",
			min.N, min.MaxRound, min.WaitNeed, min.ProposeNeed, min.DecideNeed)
	}
	if len(minIn) != min.N {
		t.Errorf("inputs length %d for N=%d", len(minIn), min.N)
	}
}

// TestShrinkPreservesFailure: the returned pair must satisfy the predicate
// — shrinking may stall, never overshoot.
func TestShrinkPreservesFailure(t *testing.T) {
	sp := protogen.Derive(3, protogen.DefaultDials(3))
	inputs := enginetest.Alternating(sp.N)
	// A predicate that pins a mid-size shape: exactly 3 processes.
	failing := func(s protogen.Spec, in model.Inputs) bool { return s.N == 3 }
	min, minIn := conformance.Shrink(sp, inputs, failing, 5000)
	if !failing(min, minIn) {
		t.Fatal("shrinker returned a pair that does not fail")
	}
}

// fuzzInputs expands a bit-packed byte into an input vector for n
// processes.
func fuzzInputs(n int, bits uint8) model.Inputs {
	in := make(model.Inputs, n)
	for p := range in {
		in[p] = model.Value((bits >> p) & 1)
	}
	return in
}

// fuzzBudget bounds every fuzzed exploration.
const fuzzBudget = 250

// runFuzzCase is the shared body of the fuzz targets: derive, check, and
// on divergence shrink to a minimal reproducer and dump it as a loadable
// fixture under testdata/failures before failing.
func runFuzzCase(t *testing.T, seed uint64, d protogen.Dials, inBits uint8) {
	t.Helper()
	sp := protogen.Derive(seed, d)
	inputs := fuzzInputs(sp.N, inBits)
	check := func(sp protogen.Spec, in model.Inputs) error {
		return conformance.Check(enginetest.Case{Protocol: sp.Name(), N: sp.N, Inputs: in, Options: explore.Options{MaxConfigs: fuzzBudget}})
	}
	err := check(sp, inputs)
	if err == nil {
		return
	}
	var div *conformance.Divergence
	if !errors.As(err, &div) {
		// Infrastructure failure, not an engine disagreement: fail loudly
		// without steering the shrinker toward flaky setups.
		t.Fatalf("harness failure (not a divergence): %v", err)
	}
	diverges := func(s protogen.Spec, in model.Inputs) bool {
		var d2 *conformance.Divergence
		return errors.As(check(s, in), &d2)
	}
	minSp, minIn := conformance.Shrink(sp, inputs, diverges, 0)
	fx := enginetest.NewFixture(minSp, minIn, fuzzBudget,
		fmt.Sprintf("shrunk from fuzz seed %d: %v", seed, err))
	path := filepath.Join("testdata", "failures", fmt.Sprintf("divergence-%d.json", seed))
	if serr := enginetest.SaveFixture(path, fx); serr != nil {
		t.Logf("could not save reproducer: %v", serr)
	} else if abs, aerr := filepath.Abs(path); aerr == nil {
		path = abs
	}
	t.Fatalf("divergence found (minimal reproducer saved to %s):\n  original: %v\n  shrunk protocol: %s inputs %s",
		path, err, minSp.Name(), minIn)
}

// FuzzConformanceTable fuzzes table-template protocols through every
// engine. Run with: go test -fuzz FuzzConformanceTable ./internal/conformance
func FuzzConformanceTable(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(65), uint8(2), uint8(2), uint8(0b010))
	f.Add(uint64(7), uint8(0), uint8(90), uint8(0), uint8(1), uint8(0b01))
	f.Add(uint64(23), uint8(2), uint8(40), uint8(1), uint8(2), uint8(0b0110))
	f.Add(uint64(998877), uint8(1), uint8(100), uint8(2), uint8(3), uint8(0b111))
	f.Fuzz(func(t *testing.T, seed uint64, n, density, phases, maxSends, inBits uint8) {
		d := protogen.Dials{
			Template: protogen.TemplateTable,
			N:        int(n%3) + 2, // 2..4: larger fleets explode the per-iteration cost
			Phases:   int(phases%3) + 1,
			Regs:     2,
			Alphabet: 2,
			Density:  int(density) % 101,
			MaxSends: int(maxSends)%3 + 1,
			DecShape: int(seed % 4),
		}
		runFuzzCase(t, seed, d, inBits)
	})
}

// FuzzConformanceBenOr fuzzes capped randomized-template protocols; the
// coin tape is fixed by the seed, so every iteration is replayable.
func FuzzConformanceBenOr(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0b01))
	f.Add(uint64(11), uint8(1), uint8(2), uint8(0b10))
	f.Add(uint64(42), uint8(0), uint8(1), uint8(0b11))
	f.Fuzz(func(t *testing.T, seed uint64, n, maxRound, inBits uint8) {
		d := protogen.Dials{
			Template: protogen.TemplateBenOr,
			N:        int(n%2) + 2, // 2..3: benor state spaces grow fastest in N
			MaxRound: int(maxRound%2) + 1,
		}
		runFuzzCase(t, seed, d, inBits)
	})
}

// BenchmarkCheck runs one case through every leg, as each input vector of
// flpcheck's conformance sweep and each case of flpgen's checks does: the
// reference, the in-process engines, the atlas, and two distributed legs,
// each on a fresh three-worker cluster that is stopped before the next.
// With -benchmem it reads what a check allocates once the process has run
// one: from the second check on, each leg's cluster starts with the memory
// the last one grew.
func BenchmarkCheck(b *testing.B) {
	c := enginetest.Case{Protocol: "paxos", N: 3, Inputs: enginetest.Alternating(3), Options: explore.Options{MaxConfigs: 400}}
	for i := 0; i < b.N; i++ {
		if err := conformance.Check(c); err != nil {
			b.Fatal(err)
		}
	}
}
