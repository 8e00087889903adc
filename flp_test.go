package flp_test

import (
	"errors"
	"testing"

	"github.com/flpsim/flp"
	"github.com/flpsim/flp/internal/enc"
)

// TestPublicAPIEndToEnd drives the library the way the README does:
// census → adversary → fair run, all through the facade.
func TestPublicAPIEndToEnd(t *testing.T) {
	pr := flp.NewNaiveMajority(3)
	census, err := flp.CensusInitial(pr, flp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if census.Counts[flp.Bivalent] != 3 {
		t.Fatalf("census: %v", census.Counts)
	}

	c, in, ok := flp.FindBivalentInitial(pr, flp.CheckOptions{})
	if !ok {
		t.Fatal("no bivalent initial configuration")
	}
	info := flp.Classify(pr, c, flp.CheckOptions{})
	if info.Valency != flp.Bivalent {
		t.Fatalf("classify: %v", info.Valency)
	}
	// The witnesses replay through the public Apply/ApplySchedule.
	for _, w := range []flp.Schedule{info.Witness0, info.Witness1} {
		if _, err := flp.ApplySchedule(pr, c, w); err != nil {
			t.Fatalf("witness replay: %v", err)
		}
	}

	res, err := flp.Run(pr, in, flp.RandomFair{}, flp.RunOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllLiveDecided {
		t.Fatal("fair run blocked")
	}
}

// customProto is a user-defined protocol written purely against the public
// API: processes decide their own input on the first step.
type customProto struct{ n int }

type customState struct {
	out flp.Output
}

func (s customState) Key() string        { return string(enc.AppendInt(nil, int(s.out))) }
func (s customState) Output() flp.Output { return s.out }

func (p customProto) Name() string { return "custom" }
func (p customProto) N() int       { return p.n }
func (p customProto) Init(_ flp.PID, _ flp.Value) flp.State {
	return customState{out: flp.None}
}
func (p customProto) Step(q flp.PID, s flp.State, _ *flp.Message) (flp.State, []flp.Message) {
	st := s.(customState)
	if !st.out.Decided() {
		// Decide the process id's parity — blatantly wrong as consensus,
		// which the checker should say.
		return customState{out: flp.OutputOf(flp.Value(q % 2))}, nil
	}
	return st, nil
}

func TestCustomProtocolThroughFacade(t *testing.T) {
	pr := customProto{n: 2}
	rep, err := flp.CheckPartialCorrectness(pr, flp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgreementHolds {
		t.Error("parity 'consensus' passed the agreement check")
	}
	if rep.Violation == nil {
		t.Error("no violation witness for a protocol with built-in disagreement")
	}
}

func TestFacadeAdversaryErrors(t *testing.T) {
	adv := flp.NewAdversary(flp.NewTwoPhaseCommit(3), flp.AdversaryOptions{Stages: 2})
	if _, err := adv.Run(); !errors.Is(err, flp.ErrNoBivalentInitial) {
		t.Errorf("err = %v, want ErrNoBivalentInitial", err)
	}
}

func TestFacadeContrasts(t *testing.T) {
	// FloodSet through the facade.
	sres, err := flp.RunSync(flp.FloodSet{}, flp.Inputs{0, 1, 1}, 1, flp.CrashPattern{})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Agreement {
		t.Error("floodset disagreed")
	}
	// OM(1) through the facade.
	cfg := flp.ByzantineConfig{N: 4, M: 1, Traitors: map[int]bool{1: true}}
	bres, err := flp.RunByzantine(cfg, flp.V1)
	if err != nil {
		t.Fatal(err)
	}
	if !bres.IC1(cfg) || !bres.IC2(cfg, flp.V1) {
		t.Error("OM(1) violated interactive consistency")
	}
	// DLS through the facade.
	dres, err := flp.RunDLS(flp.DLSOptions{N: 3, F: 1, GST: 4, DropProb: 1}, flp.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Agreement || dres.FirstDecisionRound < 4 {
		t.Errorf("dls: agreement=%v first=%d", dres.Agreement, dres.FirstDecisionRound)
	}
}

func TestFacadeEscapesAndExecutors(t *testing.T) {
	// 3PC and the diagram renderer.
	pr := flp.NewThreePhaseCommit(3)
	run, err := flp.Run(pr, flp.Inputs{1, 1, 1}, flp.NewRoundRobin(),
		flp.RunOptions{RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := run.DecidedValue(); !ok || v != flp.V1 {
		t.Errorf("3pc decided %v (ok=%v)", v, ok)
	}
	d, err := flp.ReplayDiagram(pr, flp.Inputs{1, 1, 1}, run.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != run.Steps || d.String() == "" {
		t.Error("diagram replay mismatch")
	}
}

func TestFacadeSolvableSide(t *testing.T) {
	// Lemma 2 proof walk through the facade.
	steps, err := flp.CheckLemma2Proof(flp.NewWaitAll(3), flp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Error("no Lemma 2 proof steps for WaitAll")
	}
	for _, s := range steps {
		if s.Contradiction() {
			t.Error("Lemma 2 contradiction constructed")
		}
	}
}

func TestFacadeCheckerWrappers(t *testing.T) {
	pr := flp.NewNaiveMajority(3)
	c, err := flp.Initial(pr, flp.Inputs{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// ClassifySmart and the valency cache.
	if info := flp.ClassifySmart(pr, c, flp.CheckOptions{}, flp.ProbeOptions{}); info.Valency != flp.Bivalent {
		t.Errorf("ClassifySmart = %v", info.Valency)
	}
	cache := flp.NewValencyCache(pr, flp.CheckOptions{})
	if cache.Classify(c).Valency != flp.Bivalent {
		t.Error("cache classify wrong")
	}
	// Lemma 3 census + diamond through the facade.
	res, err := flp.CensusLemma3(pr, c, flp.NullEvent(0), flp.CheckOptions{}, cache)
	if err != nil || !res.BivalentFound {
		t.Errorf("CensusLemma3: %v found=%v", err, res.BivalentFound)
	}
	rep, err := flp.CheckLemma3Diamond(pr, c, flp.NullEvent(0), flp.CheckOptions{})
	if err != nil || rep.Violations != 0 || rep.Squares == 0 {
		t.Errorf("diamond: %v squares=%d violations=%d", err, rep.Squares, rep.Violations)
	}
	f3, err := flp.CheckLemma3Figure3(pr, c, flp.NullEvent(0), flp.CheckOptions{})
	if err != nil || f3.Violations != 0 {
		t.Errorf("figure 3: %v violations=%d", err, f3.Violations)
	}
	// Commutativity + reachability + single Apply.
	s1 := flp.Schedule{flp.NullEvent(0)}
	s2 := flp.Schedule{flp.NullEvent(1)}
	if err := flp.CheckCommutativity(pr, c, s1, s2); err != nil {
		t.Error(err)
	}
	next, err := flp.Apply(pr, c, flp.NullEvent(0))
	if err != nil {
		t.Fatal(err)
	}
	if sigma, ok := flp.Reachable(pr, c, next, flp.CheckOptions{}); !ok || len(sigma) != 1 {
		t.Errorf("Reachable: ok=%v |σ|=%d", ok, len(sigma))
	}
}

func TestFacadeProtocolConstructors(t *testing.T) {
	if flp.NewTrivial0(3).N() != 3 {
		t.Error("NewTrivial0")
	}
	if flp.NewBoundedPaxosSynod(3, 5).N() != 3 {
		t.Error("NewBoundedPaxosSynod")
	}
	if flp.NewBenOr(3, 9).N() != 3 {
		t.Error("NewBenOr")
	}
	f, ok := flp.LookupProtocol("paxos")
	if !ok {
		t.Fatal("LookupProtocol")
	}
	if _, err := f(2); err == nil {
		t.Error("paxos at n=2 accepted through facade")
	}
	// Ensemble wrapper.
	agg, err := flp.RunMany(flp.NewWaitAll(3), flp.Inputs{1, 1, 0},
		func() flp.Scheduler { return flp.RandomFair{} }, flp.RunOptions{}, 3)
	if err != nil || agg.Decided != 3 {
		t.Errorf("RunMany: %v decided=%d", err, agg.Decided)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if len(flp.AllInputs(3)) != 8 {
		t.Error("AllInputs wrong")
	}
	if flp.UniformInputs(3, flp.V1).Count(flp.V1) != 3 {
		t.Error("UniformInputs wrong")
	}
	if len(flp.Broadcast(0, 4, "x")) != 4 || len(flp.BroadcastOthers(0, 4, "x")) != 3 {
		t.Error("broadcast helpers wrong")
	}
	if _, ok := flp.LookupProtocol("paxos"); !ok {
		t.Error("LookupProtocol(paxos) failed")
	}
	if _, ok := flp.LookupProtocol("nope"); ok {
		t.Error("LookupProtocol(nope) succeeded")
	}
	if len(flp.ProtocolNames()) < 6 {
		t.Error("ProtocolNames too short")
	}
	m := flp.Message{To: 1, From: 0, Body: "hi"}
	if flp.Deliver(m).Msg == nil || !flp.NullEvent(2).IsNull() {
		t.Error("event constructors wrong")
	}
	if flp.OutputOf(flp.V1) != flp.Decided1 {
		t.Error("OutputOf wrong")
	}
}
