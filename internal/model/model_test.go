package model_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// echoProto is a minimal deterministic test protocol: each process
// broadcasts its input on its first step and decides its own input once it
// has heard from every other process.
type echoProto struct{ n int }

type echoState struct {
	me    model.PID
	n     int
	input model.Value
	sent  bool
	heard map[int]bool
	out   model.Output
}

func (s *echoState) Key() string {
	b := enc.AppendInt(nil, int(s.me))
	b = enc.AppendInt(b, int(s.input))
	b = enc.AppendBool(b, s.sent)
	for q := 0; q < s.n; q++ {
		b = enc.AppendBool(b, s.heard[q])
	}
	return string(enc.AppendInt(b, int(s.out)))
}

func (s *echoState) Output() model.Output { return s.out }

func (p *echoProto) Name() string { return "echo" }
func (p *echoProto) N() int       { return p.n }

func (p *echoProto) Init(q model.PID, input model.Value) model.State {
	return &echoState{me: q, n: p.n, input: input, heard: map[int]bool{}}
}

func (p *echoProto) Step(q model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*echoState)
	ns := &echoState{me: st.me, n: st.n, input: st.input, sent: st.sent, out: st.out,
		heard: make(map[int]bool, len(st.heard))}
	for k, v := range st.heard {
		ns.heard[k] = v
	}
	var sends []model.Message
	if !ns.sent {
		ns.sent = true
		sends = model.AppendBroadcastOthers(nil, q, p.n, "v")
	}
	if m != nil {
		ns.heard[int(m.From)] = true
	}
	if !ns.out.Decided() && len(ns.heard) == p.n-1 {
		ns.out = model.OutputOf(ns.input)
	}
	return ns, sends
}

// badWriter flips its output register every step, violating write-once.
type badWriter struct{}

type badState struct{ out model.Output }

func (s badState) Key() string          { return s.out.String() }
func (s badState) Output() model.Output { return s.out }

func (badWriter) Name() string { return "badwriter" }
func (badWriter) N() int       { return 2 }
func (badWriter) Init(model.PID, model.Value) model.State {
	return badState{out: model.None}
}
func (badWriter) Step(_ model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	switch s.(badState).out {
	case model.None:
		return badState{out: model.Decided0}, nil
	case model.Decided0:
		return badState{out: model.Decided1}, nil
	}
	return badState{out: model.Decided0}, nil
}

// straySender sends to a process that does not exist.
type straySender struct{}

func (straySender) Name() string { return "stray" }
func (straySender) N() int       { return 2 }
func (straySender) Init(model.PID, model.Value) model.State {
	return badState{out: model.None}
}
func (straySender) Step(model.PID, model.State, *model.Message) (model.State, []model.Message) {
	return badState{out: model.None}, []model.Message{{To: 99, Body: "x"}}
}

func TestValueBasics(t *testing.T) {
	if !model.V0.Valid() || !model.V1.Valid() || model.Value(2).Valid() {
		t.Error("Value.Valid wrong")
	}
	if model.V0.Other() != model.V1 || model.V1.Other() != model.V0 {
		t.Error("Value.Other wrong")
	}
}

func TestOutputBasics(t *testing.T) {
	if model.None.Decided() {
		t.Error("None.Decided() = true")
	}
	if !model.Decided0.Decided() || !model.Decided1.Decided() {
		t.Error("DecidedX.Decided() = false")
	}
	if model.Decided0.Value() != model.V0 || model.Decided1.Value() != model.V1 {
		t.Error("Output.Value wrong")
	}
	if model.OutputOf(model.V1) != model.Decided1 || model.OutputOf(model.V0) != model.Decided0 {
		t.Error("OutputOf wrong")
	}
}

func TestOutputValuePanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("None.Value() did not panic")
		}
	}()
	_ = model.None.Value()
}

func TestAllInputs(t *testing.T) {
	all := model.AllInputs(3)
	if len(all) != 8 {
		t.Fatalf("AllInputs(3) has %d entries, want 8", len(all))
	}
	if all[0].String() != "000" || all[7].String() != "111" || all[5].String() != "101" {
		t.Errorf("AllInputs order wrong: %v %v %v", all[0], all[7], all[5])
	}
}

func TestInputsAdjacency(t *testing.T) {
	a := model.Inputs{model.V0, model.V1, model.V0}
	b := model.Inputs{model.V0, model.V1, model.V1}
	p, ok := a.AdjacentTo(b)
	if !ok || p != 2 {
		t.Errorf("AdjacentTo = (%d, %v), want (2, true)", p, ok)
	}
	c := model.Inputs{model.V1, model.V1, model.V1}
	if _, ok := a.AdjacentTo(c); ok {
		t.Error("configurations differing in two inputs reported adjacent")
	}
	if _, ok := a.AdjacentTo(a); ok {
		t.Error("identical assignments reported adjacent")
	}
	if _, ok := a.AdjacentTo(model.Inputs{model.V0}); ok {
		t.Error("assignments of different length reported adjacent")
	}
}

func TestInputsCount(t *testing.T) {
	in := model.Inputs{model.V0, model.V1, model.V1}
	if in.Count(model.V1) != 2 || in.Count(model.V0) != 1 {
		t.Errorf("Count wrong: %d ones, %d zeros", in.Count(model.V1), in.Count(model.V0))
	}
}

// ParseInputs inverts Inputs.String and refuses anything String cannot
// write, and any vector whose length is not the process count.
func TestParseInputs(t *testing.T) {
	for _, in := range append(model.AllInputs(3), model.Inputs{}, model.Inputs{model.V1}, model.AllInputs(6)[37]) {
		got, err := model.ParseInputs(in.String(), len(in))
		if err != nil || got.String() != in.String() || len(got) != len(in) {
			t.Errorf("ParseInputs(%q) = %v, %v", in.String(), got, err)
		}
	}
	for _, s := range []string{"2", "01x", "0 1", " 01", "01\n", "a", "0-1", "١", "0\x001"} {
		if in, err := model.ParseInputs(s, len(s)); err == nil {
			t.Errorf("ParseInputs(%q) = %v, want an error", s, in)
		}
	}
	for _, n := range []int{-1, 0, 2, 4} {
		if in, err := model.ParseInputs("011", n); err == nil {
			t.Errorf("ParseInputs(011, %d) = %v, want an error", n, in)
		}
	}
}

func TestInitialConfig(t *testing.T) {
	pr := &echoProto{n: 3}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V0})
	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Buffer().Len() != 0 {
		t.Error("initial buffer not empty")
	}
	for p := 0; p < 3; p++ {
		if c.Output(model.PID(p)) != model.None {
			t.Errorf("process %d starts decided", p)
		}
	}
	if vs := c.DecisionValues(); len(vs) != 0 {
		t.Errorf("initial configuration reports decisions %v", vs)
	}
}

// messagesTo returns the distinct messages in b addressed to p, in
// canonical order.
func messagesTo(b *model.Buffer, p model.PID) []model.Message {
	return slices.DeleteFunc(b.Messages(), func(m model.Message) bool { return m.To != p })
}

func TestInitialConfigErrors(t *testing.T) {
	pr := &echoProto{n: 3}
	if _, err := model.Initial(pr, model.Inputs{model.V0}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := model.Initial(pr, model.Inputs{model.V0, model.Value(7), model.V0}); err == nil {
		t.Error("invalid input value accepted")
	}
	if _, err := model.Initial(&echoProto{n: 1}, model.Inputs{model.V0}); err == nil {
		t.Error("N=1 protocol accepted; paper requires N ≥ 2")
	}
}

func TestApplyStepSemantics(t *testing.T) {
	pr := &echoProto{n: 2}
	c0 := model.MustInitial(pr, model.Inputs{model.V0, model.V1})

	// First step of p0: null delivery, broadcasts to p1.
	c1, err := model.Apply(pr, c0, model.NullEvent(0))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Buffer().Len() != 1 {
		t.Fatalf("after p0's first step buffer has %d messages, want 1", c1.Buffer().Len())
	}
	msgs := messagesTo(c1.Buffer(), 1)
	if len(msgs) != 1 || msgs[0].From != 0 {
		t.Fatalf("message misaddressed: %v", msgs)
	}
	// Original configuration unchanged (immutability).
	if c0.Buffer().Len() != 0 {
		t.Error("Apply mutated the source configuration")
	}

	// p1 receives it: sends its own broadcast and decides (heard everyone).
	c2, err := model.Apply(pr, c1, model.Deliver(msgs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Output(1) != model.Decided1 {
		t.Errorf("p1 output = %s, want 1", c2.Output(1))
	}
	if c2.Buffer().Len() != 1 {
		t.Errorf("buffer len = %d, want 1 (p1's broadcast)", c2.Buffer().Len())
	}
	// Delivering p1's vote lets p0 decide 0: both decided, agreement broken
	// by design in this toy protocol (each decides its own input).
	back := messagesTo(c2.Buffer(), 0)
	c3 := model.MustApply(pr, c2, model.Deliver(back[0]))
	vs := c3.DecisionValues()
	if len(vs) != 2 {
		t.Fatalf("DecisionValues = %v, want both values", vs)
	}
	if c3.DecidedCount() != 2 {
		t.Errorf("DecidedCount = %d, want 2", c3.DecidedCount())
	}
}

func TestApplyRejectsMissingMessage(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	ghost := model.Message{To: 0, From: 1, Body: "v"}
	_, err := model.Apply(pr, c, model.Deliver(ghost))
	if !errors.Is(err, model.ErrNotApplicable) {
		t.Errorf("delivering absent message: err = %v, want ErrNotApplicable", err)
	}
}

func TestApplyEnforcesWriteOnce(t *testing.T) {
	pr := badWriter{}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	c1 := model.MustApply(pr, c, model.NullEvent(0)) // decides 0
	_, err := model.Apply(pr, c1, model.NullEvent(0))
	var perr *model.ProtocolError
	if !errors.As(err, &perr) {
		t.Fatalf("write-once violation not caught: err = %v", err)
	}
	if !strings.Contains(perr.Error(), "write-once") {
		t.Errorf("error message does not mention write-once: %v", perr)
	}
}

func TestApplyRejectsStrayDestination(t *testing.T) {
	pr := straySender{}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	_, err := model.Apply(pr, c, model.NullEvent(0))
	var perr *model.ProtocolError
	if !errors.As(err, &perr) {
		t.Fatalf("stray destination not caught: err = %v", err)
	}
}

func TestApplyRejectsBadProcess(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	if _, err := model.Apply(pr, c, model.NullEvent(5)); err == nil {
		t.Error("event for nonexistent process accepted")
	}
}

func TestIsNoOp(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	if model.IsNoOp(pr, c, model.NullEvent(0)) {
		t.Error("first null step (which broadcasts) reported as no-op")
	}
	c1 := model.MustApply(pr, c, model.NullEvent(0))
	if !model.IsNoOp(pr, c1, model.NullEvent(0)) {
		t.Error("repeated null step reported as effectful")
	}
	// Deliveries are never no-ops.
	m := messagesTo(c1.Buffer(), 1)[0]
	if model.IsNoOp(pr, c1, model.Deliver(m)) {
		t.Error("message delivery reported as no-op")
	}
}

// countingProto is echoProto with every State.Key() and Step call counted.
type countingProto struct {
	echoProto
	keys, steps int
}

type countedState struct {
	*echoState
	keys *int
}

func (s countedState) Key() string {
	*s.keys++
	return s.echoState.Key()
}

func (p *countingProto) Init(q model.PID, input model.Value) model.State {
	return countedState{p.echoProto.Init(q, input).(*echoState), &p.keys}
}

func (p *countingProto) Step(q model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	p.steps++
	ns, sends := p.echoProto.Step(q, s.(countedState).echoState, m)
	return countedState{ns.(*echoState), &p.keys}, sends
}

// On the expansion path a state's Key() is built once, by the step that
// produced the state (Initial, for the first N): no-op tests, both
// canonical encodings, the fingerprint, equality and interning all run on
// the key the configuration carries.
func TestStateKeyBuiltOncePerStep(t *testing.T) {
	pr := &countingProto{echoProto: echoProto{n: 3}}
	root := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V1})
	if pr.keys != 3 {
		t.Fatalf("Initial built %d state keys for 3 processes", pr.keys)
	}
	seen := model.NewInterner()
	level := []*model.Config{root}
	for depth := 0; depth < 4; depth++ {
		var next []*model.Config
		for _, c := range level {
			for _, e := range model.Events(c) {
				nc := model.Expand(pr, c, e)
				if nc == nil {
					continue
				}
				nc.Hash()
				nc.KeyBytes()
				nc.Equal(c)
				if _, fresh := seen.Intern(nc); fresh {
					next = append(next, nc)
				}
			}
		}
		level = next
	}
	if pr.steps == 0 || pr.keys != 3+pr.steps {
		t.Errorf("%d Step calls built %d state keys (3 of them in Initial), want one per Step", pr.steps, pr.keys)
	}
}

func TestEventIdentity(t *testing.T) {
	m := model.Message{To: 1, From: 0, Body: "v"}
	e1 := model.Deliver(m)
	e2 := model.Deliver(m)
	if !e1.Same(e2) {
		t.Error("identical delivery events not Same")
	}
	if e1.Same(model.NullEvent(1)) {
		t.Error("delivery Same as null event")
	}
	if !model.NullEvent(2).Same(model.NullEvent(2)) {
		t.Error("identical null events not Same")
	}
	if model.NullEvent(1).Same(model.NullEvent(2)) {
		t.Error("null events of different processes Same")
	}
	m2 := m
	m2.Body = "w"
	if e1.Same(model.Deliver(m2)) {
		t.Error("different-body deliveries Same")
	}
	if bytes.Equal(model.AppendEvent(nil, e1), model.AppendEvent(nil, model.NullEvent(1))) {
		t.Error("event encodings collide")
	}
}

func TestEventsEnumeration(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V1})
	evs := model.Events(c)
	// Empty buffer: exactly the two null events.
	if len(evs) != 2 {
		t.Fatalf("Events on empty buffer = %d, want 2", len(evs))
	}
	c1 := model.MustApply(pr, c, model.NullEvent(0))
	evs = model.Events(c1)
	if len(evs) != 3 {
		t.Fatalf("Events = %d, want 3 (2 null + 1 delivery)", len(evs))
	}
}

func TestConfigKeyStability(t *testing.T) {
	pr := &echoProto{n: 3}
	in := model.Inputs{model.V0, model.V1, model.V1}
	a := model.MustInitial(pr, in)
	b := model.MustInitial(pr, in)
	if !a.Equal(b) {
		t.Error("identical initial configurations not Equal")
	}
	// Two different event orders that consume the same messages lead to the
	// same configuration (multiset semantics).
	a1 := model.MustApply(pr, a, model.NullEvent(0))
	a2 := model.MustApply(pr, a1, model.NullEvent(1))
	b1 := model.MustApply(pr, b, model.NullEvent(1))
	b2 := model.MustApply(pr, b1, model.NullEvent(0))
	if !a2.Equal(b2) {
		t.Error("disjoint steps in different orders give unequal configurations")
	}
	c := model.MustInitial(pr, model.Inputs{model.V1, model.V1, model.V1})
	if a.Equal(c) {
		t.Error("configurations with different inputs Equal")
	}
}

func TestScheduleApply(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V1, model.V0})
	sigma := model.Schedule{model.NullEvent(0), model.NullEvent(1)}
	c2, err := model.ApplySchedule(pr, c, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Buffer().Len() != 2 {
		t.Errorf("buffer after both broadcasts = %d, want 2", c2.Buffer().Len())
	}
	// A schedule delivering a message that is not there fails.
	bad := model.Schedule{model.Deliver(model.Message{To: 0, From: 1, Body: "nope"})}
	if _, err := model.ApplySchedule(pr, c, bad); err == nil {
		t.Error("inapplicable schedule accepted")
	}
}

func TestScheduleHelpers(t *testing.T) {
	s1 := model.Schedule{model.NullEvent(0), model.NullEvent(0), model.NullEvent(2)}
	s2 := model.Schedule{model.NullEvent(1)}
	s3 := model.Schedule{model.NullEvent(2)}
	if !s1.DisjointFrom(s2) {
		t.Error("disjoint schedules reported overlapping")
	}
	if s1.DisjointFrom(s3) {
		t.Error("overlapping schedules reported disjoint")
	}
	ps := s1.Processes()
	if !ps[0] || !ps[2] || ps[1] {
		t.Errorf("Processes = %v", ps)
	}
}

// TestLemma1Commutativity checks Lemma 1 directly at the model layer: for
// schedules over disjoint process sets, σ2(σ1(C)) = σ1(σ2(C)).
func TestLemma1Commutativity(t *testing.T) {
	pr := &echoProto{n: 4}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V1, model.V0, model.V1})
	s1 := model.Schedule{model.NullEvent(0), model.NullEvent(1)}
	s2 := model.Schedule{model.NullEvent(2), model.NullEvent(3)}
	a := model.MustApplySchedule(pr, model.MustApplySchedule(pr, c, s1), s2)
	b := model.MustApplySchedule(pr, model.MustApplySchedule(pr, c, s2), s1)
	if !a.Equal(b) {
		t.Error("Lemma 1 violated for disjoint null schedules")
	}
}

func TestBroadcastHelpers(t *testing.T) {
	all := model.AppendBroadcast(nil, 1, 3, "m")
	if len(all) != 3 {
		t.Fatalf("AppendBroadcast len = %d, want 3", len(all))
	}
	for i, m := range all {
		if m != (model.Message{To: model.PID(i), From: 1, Body: "m"}) {
			t.Errorf("AppendBroadcast[%d] = %v", i, m)
		}
	}
	others := model.AppendBroadcastOthers(nil, 1, 3, "m")
	if len(others) != 2 {
		t.Fatalf("AppendBroadcastOthers len = %d, want 2", len(others))
	}
	for _, m := range others {
		if m.To == 1 {
			t.Error("AppendBroadcastOthers included sender")
		}
	}
	// Appending keeps what dst held: two broadcasts share one slice.
	both := model.AppendBroadcastOthers(all, 1, 3, "n")
	if len(both) != 5 || both[2].Body != "m" || both[3] != (model.Message{To: 0, From: 1, Body: "n"}) {
		t.Errorf("AppendBroadcastOthers onto a broadcast = %v", both)
	}
}

func TestStringRenderings(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V1})
	if c.String() == "" || !strings.Contains(c.String(), "p0") {
		t.Errorf("Config.String = %q", c.String())
	}
	if model.V1.String() != "1" {
		t.Errorf("Value.String = %q", model.V1.String())
	}
	if model.Output(9).String() == "" {
		t.Error("unknown Output renders empty")
	}
	s := model.Schedule{model.NullEvent(0), model.Deliver(model.Message{To: 1, From: 0, Body: "v"})}
	if !strings.Contains(s.String(), "∅") || !strings.Contains(s.String(), "v") {
		t.Errorf("Schedule.String = %q", s.String())
	}
	if len(model.AppendEvent(nil, model.NullEvent(2))) == 0 {
		t.Error("null event encodes empty")
	}
}

func TestUniformInputs(t *testing.T) {
	in := model.UniformInputs(4, model.V1)
	if in.Count(model.V1) != 4 || in.Count(model.V0) != 0 {
		t.Errorf("UniformInputs = %v", in)
	}
}

func TestApplicableEdgeCases(t *testing.T) {
	pr := &echoProto{n: 2}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	if model.Applicable(c, model.NullEvent(9)) {
		t.Error("event for nonexistent process applicable")
	}
	// A delivery event whose message names a different destination than
	// the event's process is malformed and inapplicable.
	m := model.Message{To: 1, From: 0, Body: "v"}
	bad := model.Event{P: 0, Msg: &m}
	if model.Applicable(c, bad) {
		t.Error("mismatched delivery applicable")
	}
}
