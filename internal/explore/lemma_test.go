package explore_test

import (
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// messagesTo returns the distinct messages in b addressed to p, in
// canonical order.
func messagesTo(b *model.Buffer, p model.PID) []model.Message {
	return slices.DeleteFunc(b.Messages(), func(m model.Message) bool { return m.To != p })
}

func TestCensusInitialNaiveMajority(t *testing.T) {
	// Lemma 2's content on the finite fixture: exact per-input valencies.
	census, err := explore.CensusInitial(protocols.NewNaiveMajority(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !census.AllExact {
		t.Error("census not exact on a finite protocol")
	}
	if census.Bivalent == nil {
		t.Fatal("no bivalent initial configuration found; Lemma 2 demo broken")
	}
	if got := census.Counts[explore.Bivalent]; got != 3 {
		t.Errorf("bivalent count = %d, want 3 (011, 101, 110)", got)
	}
	if got := census.Counts[explore.ZeroValent]; got != 4 {
		t.Errorf("0-valent count = %d, want 4", got)
	}
	if got := census.Counts[explore.OneValent]; got != 1 {
		t.Errorf("1-valent count = %d, want 1 (111)", got)
	}
	if len(census.PerInput) != 8 {
		t.Errorf("PerInput has %d entries, want 8", len(census.PerInput))
	}
}

func TestCensusInitialWaitAll(t *testing.T) {
	// WaitAll fails Lemma 2's hypothesis (it is not fault tolerant) and
	// indeed has no bivalent initial configuration — but it does have the
	// adjacent 0-valent/1-valent pair the lemma's proof pivots on.
	census, err := explore.CensusInitial(protocols.NewWaitAll(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if census.Bivalent != nil {
		t.Error("WaitAll reported a bivalent initial configuration")
	}
	if census.Counts[explore.ZeroValent] != 4 || census.Counts[explore.OneValent] != 4 {
		t.Errorf("counts = %v, want 4 and 4", census.Counts)
	}
	if census.Adjacent == nil {
		t.Fatal("no adjacent 0-valent/1-valent pair found")
	}
	if _, ok := census.Adjacent.Zero.AdjacentTo(census.Adjacent.One); !ok {
		t.Error("reported adjacent pair is not adjacent")
	}
}

func TestCensusInitialTrivial0(t *testing.T) {
	census, err := explore.CensusInitial(protocols.NewTrivial0(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if census.Counts[explore.ZeroValent] != 8 {
		t.Errorf("trivial0 counts = %v, want all 0-valent", census.Counts)
	}
	if census.Adjacent != nil {
		t.Error("trivial0 reported an adjacent 0/1 pair")
	}
}

func TestFindBivalentInitial(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c, inp, ok := explore.FindBivalentInitial(pr, explore.Options{})
	if !ok {
		t.Fatal("no bivalent initial configuration found")
	}
	if inp.String() != "011" {
		t.Errorf("first bivalent inputs = %s, want 011 (scan order)", inp)
	}
	if info := explore.Classify(pr, c, explore.Options{}); info.Valency != explore.Bivalent {
		t.Error("returned configuration is not bivalent")
	}
	if _, _, ok := explore.FindBivalentInitial(protocols.NewWaitAll(3), explore.Options{}); ok {
		t.Error("WaitAll reported a bivalent initial configuration")
	}
}

func TestLemma3CensusOnBivalentConfig(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	cache := explore.NewCache(pr, explore.Options{})

	for _, e := range []model.Event{model.NullEvent(0), model.NullEvent(2)} {
		res, err := explore.CensusLemma3(pr, c, e, explore.Options{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Errorf("event %s: frontier not exhausted on a finite protocol", e)
		}
		if !res.BivalentFound {
			t.Fatalf("event %s: no bivalent configuration in D — Lemma 3 falsified?!", e)
		}
		if res.FrontierSize == 0 {
			t.Error("empty frontier")
		}
		// The witness schedule ends with e and reaches a bivalent config.
		last := res.Sigma[len(res.Sigma)-1]
		if !last.Same(e) {
			t.Errorf("witness schedule does not end with e: %s", res.Sigma)
		}
		D := model.MustApplySchedule(pr, c, res.Sigma)
		if info := explore.Classify(pr, D, explore.Options{}); info.Valency != explore.Bivalent {
			t.Errorf("witness configuration classifies %v, want bivalent", info.Valency)
		}
	}
}

func TestLemma3DeliveryEvent(t *testing.T) {
	// Use a bivalent configuration with traffic in flight: after p0 and p2
	// broadcast, pick delivery of p2's vote to p0 as the committed event.
	pr := protocols.NewNaiveMajority(3)
	c0 := model.MustInitial(pr, in(0, 1, 1))
	c := model.MustApplySchedule(pr, c0, model.Schedule{model.NullEvent(0), model.NullEvent(2)})
	if info := explore.Classify(pr, c, explore.Options{}); info.Valency != explore.Bivalent {
		t.Skip("intermediate configuration not bivalent; fixture changed")
	}
	var e model.Event
	for _, m := range messagesTo(c.Buffer(), 0) {
		if m.From == 2 {
			e = model.Deliver(m)
		}
	}
	if e.Msg == nil {
		t.Fatal("expected message from p2 to p0 in flight")
	}
	res, err := explore.CensusLemma3(pr, c, e, explore.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BivalentFound {
		t.Fatal("no bivalent configuration in D for a delivery event")
	}
	if len(res.Sigma) == 0 || !res.Sigma[len(res.Sigma)-1].Same(e) {
		t.Error("witness schedule does not end with the committed delivery")
	}
}

func TestLemma3DiamondCommutes(t *testing.T) {
	// Figure 2: every neighbor square around the committed event commutes
	// — Lemma 1 where the Lemma 3 proof uses it.
	pr := protocols.NewNaiveMajority(3)
	c0 := model.MustInitial(pr, in(0, 1, 1))
	deep := model.MustApplySchedule(pr, c0, model.Schedule{model.NullEvent(0), model.NullEvent(2)})
	for _, tc := range []struct {
		c *model.Config
		e model.Event
	}{
		{c0, model.NullEvent(0)},
		{deep, model.NullEvent(1)},
		{deep, model.Deliver(messagesTo(deep.Buffer(), 1)[0])},
	} {
		rep, err := explore.CheckLemma3Diamond(pr, tc.c, tc.e, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Squares == 0 {
			t.Errorf("event %s: no squares checked", tc.e)
		}
		if rep.Violations != 0 {
			t.Errorf("event %s: %d of %d diamonds failed to commute", tc.e, rep.Violations, rep.Squares)
		}
		if !rep.Complete {
			t.Errorf("event %s: frontier not exhausted", tc.e)
		}
	}
}

func TestLemma3Figure3Commutes(t *testing.T) {
	// Case 2 of the Lemma 3 proof: same-process neighbor pairs, a p-free
	// deciding run σ, and the two Lemma 1 commutations of Figure 3.
	pr := protocols.NewNaiveMajority(3)
	c0 := model.MustInitial(pr, in(0, 1, 1))
	deep := model.MustApplySchedule(pr, c0, model.Schedule{model.NullEvent(0), model.NullEvent(2)})
	for _, tc := range []struct {
		c *model.Config
		e model.Event
	}{
		{deep, model.NullEvent(1)},
		{deep, model.Deliver(messagesTo(deep.Buffer(), 1)[0])},
	} {
		rep, err := explore.CheckLemma3Figure3(pr, tc.c, tc.e, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs == 0 {
			t.Errorf("event %s: no same-process neighbor pairs", tc.e)
		}
		if rep.SigmaFound == 0 {
			t.Errorf("event %s: no p-free deciding runs found; NaiveMajority should decide without any one process", tc.e)
		}
		if rep.Violations != 0 {
			t.Errorf("event %s: %d Figure 3 commutation violations", tc.e, rep.Violations)
		}
		if !rep.Complete {
			t.Errorf("event %s: frontier not exhausted", tc.e)
		}
	}
}

func TestLemma3Figure3RejectsInapplicable(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	ghost := model.Deliver(model.Message{To: 0, From: 1, Body: "V1"})
	if _, err := explore.CheckLemma3Figure3(pr, c, ghost, explore.Options{}); err == nil {
		t.Error("inapplicable event accepted")
	}
}

func TestLemma3DiamondRejectsInapplicable(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	ghost := model.Deliver(model.Message{To: 0, From: 1, Body: "V1"})
	if _, err := explore.CheckLemma3Diamond(pr, c, ghost, explore.Options{}); err == nil {
		t.Error("inapplicable event accepted")
	}
}

// muteProto never decides: its configurations are Stuck.
type muteProto struct{}

type muteState struct{ sent bool }

func (s muteState) Key() string {
	if s.sent {
		return "1"
	}
	return "0"
}
func (s muteState) Output() model.Output { return model.None }

func (muteProto) Name() string                            { return "mute" }
func (muteProto) N() int                                  { return 2 }
func (muteProto) Init(model.PID, model.Value) model.State { return muteState{} }
func (muteProto) Step(p model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	st := s.(muteState)
	if !st.sent {
		return muteState{sent: true}, model.AppendBroadcastOthers(nil, p, 2, "noise")
	}
	return st, nil
}

func TestClassifyStuck(t *testing.T) {
	// A protocol that never decides: V = ∅, the case the paper excludes
	// by total correctness and 2PC-with-a-dead-coordinator exhibits.
	pr := muteProto{}
	c := model.MustInitial(pr, in(0, 1))
	info := explore.Classify(pr, c, explore.Options{})
	if info.Valency != explore.Stuck || !info.Exact {
		t.Errorf("mute protocol classifies %v (exact=%v), want exact stuck", info.Valency, info.Exact)
	}
}

func TestFrontierRejectsInapplicableAndStops(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	ghost := model.Deliver(model.Message{To: 0, From: 1, Body: "V1"})
	if _, err := explore.Frontier(pr, c, ghost, explore.Options{}, func(_, _ *model.Config, _ func() model.Schedule) bool { return true }); err == nil {
		t.Error("inapplicable event accepted")
	}
	e := model.NullEvent(0)
	members := 0
	complete, err := explore.Frontier(pr, c, e, explore.Options{}, func(E, D *model.Config, path func() model.Schedule) bool {
		members++
		if !model.MustApplySchedule(pr, c, path()).Equal(E) || !model.MustApply(pr, E, e).Equal(D) {
			t.Errorf("member %d: path or D = e(E) does not replay", members)
		}
		return members < 3
	})
	if err != nil || complete || members != 3 {
		t.Errorf("stopped walk: complete=%v members=%d err=%v, want an incomplete walk of 3 members", complete, members, err)
	}
}

func TestLemma3RejectsInapplicableEvent(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, in(0, 1, 1))
	ghost := model.Deliver(model.Message{To: 0, From: 1, Body: "V1"})
	if _, err := explore.CensusLemma3(pr, c, ghost, explore.Options{}, nil); err == nil {
		t.Error("inapplicable event accepted")
	}
}

func TestCheckPartialCorrectnessNaiveMajorityViolation(t *testing.T) {
	rep, err := explore.CheckPartialCorrectness(protocols.NewNaiveMajority(3), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgreementHolds {
		t.Fatal("NaiveMajority's agreement violation not found")
	}
	if rep.Violation == nil {
		t.Fatal("no violation witness")
	}
	// Replay the witness: the schedule must reach a two-valued config.
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, rep.Violation.Inputs)
	cfg, err := model.ApplySchedule(pr, c, rep.Violation.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.DecisionValues()) != 2 {
		t.Errorf("witness configuration has decision values %v, want both", cfg.DecisionValues())
	}
	if len(rep.Violation.Deciders) != 2 {
		t.Errorf("deciders = %v, want one per value", rep.Violation.Deciders)
	}
	if !rep.Nontrivial {
		t.Error("NaiveMajority reported trivial")
	}
}

func TestCheckPartialCorrectnessSafeProtocols(t *testing.T) {
	for _, pr := range []model.Protocol{
		protocols.NewWaitAll(3),
		protocols.NewTwoPhaseCommit(3),
	} {
		rep, err := explore.CheckPartialCorrectness(pr, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AgreementHolds || !rep.Complete {
			t.Errorf("%s: agreement=%v complete=%v, want true, true", pr.Name(), rep.AgreementHolds, rep.Complete)
		}
		if !rep.Nontrivial {
			t.Errorf("%s: reported trivial; both values should be reachable", pr.Name())
		}
	}
}

func TestCheckPartialCorrectnessTrivial0(t *testing.T) {
	rep, err := explore.CheckPartialCorrectness(protocols.NewTrivial0(2), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AgreementHolds {
		t.Error("trivial0 violates agreement?!")
	}
	if rep.Nontrivial {
		t.Error("trivial0 reported nontrivial; it only ever decides 0")
	}
}
