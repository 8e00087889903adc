package protogen_test

import (
	"encoding/json"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// build resolves sp's name through the protocol registry, which realizes
// both templates.
func build(t *testing.T, sp protogen.Spec) model.Protocol {
	t.Helper()
	factory, _ := protocols.Lookup(sp.Name())
	pr, err := factory(0)
	if err != nil {
		t.Fatalf("building %s: %v", sp.Name(), err)
	}
	return pr
}

func altInputs(n int) model.Inputs {
	in := make(model.Inputs, n)
	for p := range in {
		in[p] = model.Value(p & 1)
	}
	return in
}

// TestDeriveDeterministic pins the generator's core contract: the same
// (seed, dials) produce byte-identical specs and names, and nearby seeds
// produce different protocols.
func TestDeriveDeterministic(t *testing.T) {
	for _, tmpl := range []string{protogen.TemplateTable, protogen.TemplateBenOr} {
		d := protogen.DefaultDials(3)
		d.Template = tmpl
		for seed := uint64(1); seed < 20; seed++ {
			a := protogen.Derive(seed, d)
			b := protogen.Derive(seed, d)
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatalf("%s seed %d: Derive is not deterministic:\n%s\n%s", tmpl, seed, ja, jb)
			}
			if a.Name() != b.Name() {
				t.Fatalf("%s seed %d: names differ", tmpl, seed)
			}
		}
		if protogen.Derive(1, d).Name() == protogen.Derive(2, d).Name() {
			t.Fatalf("%s: seeds 1 and 2 collide", tmpl)
		}
	}
}

// TestDeriveValid: every derived spec must pass its own validator — over a
// spread of seeds and dial corners, including degenerate dials that the
// normalizer must clamp.
func TestDeriveValid(t *testing.T) {
	dials := []protogen.Dials{
		protogen.DefaultDials(3),
		{Template: protogen.TemplateTable, N: 2, Phases: 1, Regs: 1, Alphabet: 1, Density: 100, MaxSends: 3},
		{Template: protogen.TemplateTable, N: 6, Phases: 5, Regs: 3, Alphabet: 4, Density: 0},
		{Template: protogen.TemplateBenOr, N: 2, MaxRound: 1},
		{Template: protogen.TemplateBenOr, N: 5, MaxRound: 4},
		{Template: "bogus", N: -7, Phases: 99, Regs: -1, Alphabet: 99, Density: 999, MaxSends: -5, DecShape: 42, MaxRound: 0},
	}
	for _, d := range dials {
		for seed := uint64(0); seed < 25; seed++ {
			sp := protogen.Derive(seed, d)
			if err := sp.Validate(); err != nil {
				t.Fatalf("Derive(%d, %+v) invalid: %v", seed, d, err)
			}
		}
	}
}

// TestNameRoundTrip: FromName(sp.Name()) must reconstruct the identical
// spec for both name forms — the distributed engine rebuilds protocols
// from nothing else.
func TestNameRoundTrip(t *testing.T) {
	d := protogen.DefaultDials(3)
	for seed := uint64(1); seed < 10; seed++ {
		sp := protogen.Derive(seed, d)

		// Derived form.
		back, err := protogen.FromName(sp.Name())
		if err != nil {
			t.Fatalf("seed %d: FromName(derived): %v", seed, err)
		}
		ja, _ := json.Marshal(sp)
		jb, _ := json.Marshal(back)
		if string(ja) != string(jb) {
			t.Fatalf("seed %d: derived name round-trip diverged:\n%s\n%s", seed, ja, jb)
		}

		// JSON form: clearing provenance switches the encoding.
		edited := sp
		edited.Dials = nil
		back2, err := protogen.FromName(edited.Name())
		if err != nil {
			t.Fatalf("seed %d: FromName(json): %v", seed, err)
		}
		ja2, _ := json.Marshal(edited)
		jb2, _ := json.Marshal(back2)
		if string(ja2) != string(jb2) {
			t.Fatalf("seed %d: json name round-trip diverged", seed)
		}
	}
	if _, err := protogen.FromName("gen:bogus"); err == nil {
		t.Fatal("FromName accepted a malformed name")
	}
	if _, err := protogen.FromName("paxos"); err == nil {
		t.Fatal("FromName accepted a non-generated name")
	}
}

// TestValidateRejects pins the validator against each invariant breach the
// shrinker and fixture loader count on it to catch, and the text of each
// table-entry error.
func TestValidateRejects(t *testing.T) {
	base := protogen.Derive(7, protogen.DefaultDials(3)) // 3 phases, 2 regs, alphabet 2
	breach := func(mutate func(*protogen.Spec)) error {
		sp := base
		sp.Table = append([]protogen.Transition(nil), base.Table...)
		mutate(&sp)
		return sp.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*protogen.Spec)
		want   string // the exact error text; "" checks only that Validate refuses
	}{
		{"version", func(sp *protogen.Spec) { sp.V = 99 }, ""},
		{"n-too-small", func(sp *protogen.Spec) { sp.N = 1 }, ""},
		{"table-size", func(sp *protogen.Spec) { sp.Table = sp.Table[:len(sp.Table)-1] }, ""},
		{"next-backwards", func(sp *protogen.Spec) {
			sp.Table[len(sp.Table)-1] = protogen.Transition{Next: 0, Reg: 0}
			sp.Table[len(sp.Table)-1].Next = -1
		}, "protogen: entry (phase 2, reg 1, sym 2): Next=-1 out of range [2, 3]"},
		{"reg", func(sp *protogen.Spec) {
			sp.Table[1] = protogen.Transition{Next: 1, Reg: 9}
		}, "protogen: entry (phase 0, reg 0, sym 1): Reg=9 out of range [0, 2)"},
		{"decision", func(sp *protogen.Spec) {
			sp.Table[2] = protogen.Transition{Next: 1, Decide: 9}
		}, "protogen: entry (phase 0, reg 0, sym 2): unknown decision 9"},
		{"send-without-advance", func(sp *protogen.Spec) {
			sp.Table[0] = protogen.Transition{Next: 0, Reg: 0, Sends: []protogen.Send{{Target: 0, Sym: 0}}}
		}, "protogen: entry (phase 0, reg 0, sym 0): sends without a phase advance would unbound the message buffer"},
		{"send-target", func(sp *protogen.Spec) {
			sp.Table[0] = protogen.Transition{Next: 1, Reg: 0, Sends: []protogen.Send{{Target: 99, Sym: 0}}}
		}, "protogen: entry (phase 0, reg 0, sym 0): send target 99 invalid for N=3"},
		{"send-symbol", func(sp *protogen.Spec) {
			sp.Table[0] = protogen.Transition{Next: 1, Reg: 0, Sends: []protogen.Send{{Target: 0, Sym: 99}}}
		}, "protogen: entry (phase 0, reg 0, sym 0): send symbol 99 out of range [0, 2)"},
	}
	for _, tc := range cases {
		err := breach(tc.mutate)
		switch {
		case err == nil:
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}

	bo := protogen.Derive(7, protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2})
	bo.DecideNeed = 9
	if err := bo.Validate(); err == nil {
		t.Error("benor threshold above N accepted")
	}
}

// TestAllocsValidateDerivedTable pins that validating a valid table spec
// allocates nothing: every resolution of a gen: name validates its table,
// and an error label formatted per entry once cost 40 % of resolving one.
func TestAllocsValidateDerivedTable(t *testing.T) {
	d := protogen.DefaultDials(3)
	d.Phases, d.Regs, d.Alphabet = 5, 3, 3 // 60 entries
	sp := protogen.Derive(11, d)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { sp.Validate() }); allocs != 0 {
		t.Fatalf("Validate on a valid %d-entry table allocates %.1f/op, want 0", len(sp.Table), allocs)
	}
}

// TestModelConformance drives generated protocols through the shared
// model-contract checker: determinism, non-mutation, write-once outputs.
func TestModelConformance(t *testing.T) {
	for _, tmpl := range []string{protogen.TemplateTable, protogen.TemplateBenOr} {
		for _, n := range []int{2, 3, 4} {
			d := protogen.DefaultDials(n)
			d.Template = tmpl
			for seed := uint64(1); seed <= 5; seed++ {
				sp := protogen.Derive(seed, d)
				pr := build(t, sp)
				for walkSeed := int64(0); walkSeed < 2; walkSeed++ {
					modeltest.CheckConformance(t, pr, altInputs(n), 80, walkSeed)
				}
			}
		}
	}
}

// TestFiniteStateSpace is the teeth behind validity invariant 3: every
// generated protocol's reachable configuration graph must be exhausted
// within a finite budget.
func TestFiniteStateSpace(t *testing.T) {
	// Small dials: finiteness holds at every size by construction (sends
	// require a phase advance; rounds are capped), but reachable graphs
	// grow combinatorially with the dials, so the exhaustiveness check
	// runs where exhaustion is cheap.
	for _, tmpl := range []string{protogen.TemplateTable, protogen.TemplateBenOr} {
		n := 3
		if tmpl == protogen.TemplateBenOr {
			n = 2 // every round is two all-to-all broadcasts; N=3 already reaches millions of configurations
		}
		d := protogen.Dials{Template: tmpl, N: n, Phases: 2, Regs: 2, Alphabet: 1,
			Density: 60, MaxSends: 1, MaxRound: 1}
		for seed := uint64(1); seed <= 8; seed++ {
			sp := protogen.Derive(seed, d)
			pr := build(t, sp)
			c := model.MustInitial(pr, altInputs(sp.N))
			complete, visited := explore.Explore(pr, c, explore.Options{MaxConfigs: 500_000, Workers: 1}, nil, nil)
			if !complete {
				t.Fatalf("%s seed %d: state space not exhausted at %d configurations — finiteness invariant broken", tmpl, seed, visited)
			}
		}
	}
}

// TestBenOrCoinDeterministic: the coin tape is part of the protocol
// identity — same spec, same flips.
func TestBenOrCoinDeterministic(t *testing.T) {
	d := protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2}
	sp := protogen.Derive(11, d)
	a := build(t, sp)
	b := build(t, sp)
	in := altInputs(3)
	ca := model.MustInitial(a, in)
	cb := model.MustInitial(b, in)
	for i := 0; i < 40; i++ {
		evs := modeltest.EffectfulEvents(a, ca)
		if len(evs) == 0 {
			break
		}
		e := evs[i%len(evs)]
		ca = model.MustApply(a, ca, e)
		cb = model.MustApply(b, cb, e)
		if !ca.Equal(cb) {
			t.Fatalf("step %d: identical schedules diverged", i)
		}
	}
}
