package fifo

import (
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

func msg(to, from model.PID, body string) model.Message {
	return model.Message{To: to, From: from, Body: body}
}

// queueOf reads p's pending messages in send order through At.
func queueOf(tr *Tracker, p model.PID) []model.Message {
	q := make([]model.Message, tr.PendingTo(p))
	for i := range q {
		q[i] = tr.At(p, i)
	}
	return q
}

// pending returns the number of messages pending for processes 0..n-1.
func pending(tr *Tracker, n int) int {
	total := 0
	for p := range n {
		total += tr.PendingTo(model.PID(p))
	}
	return total
}

// clone returns a deep copy of tr made through CopyFrom.
func clone(tr *Tracker) *Tracker {
	c := New()
	c.CopyFrom(tr)
	return c
}

func TestSendOldestOrder(t *testing.T) {
	tr := New()
	a := msg(0, 1, "a")
	b := msg(0, 2, "b")
	c := msg(1, 2, "c")
	tr.Send(a)
	tr.Send(b)
	tr.Send(c)
	if got, ok := tr.Oldest(0); !ok || got != a {
		t.Errorf("Oldest(0) = %v, %v; want %v", got, ok, a)
	}
	if got, ok := tr.Oldest(1); !ok || got != c {
		t.Errorf("Oldest(1) = %v, %v; want %v", got, ok, c)
	}
	if _, ok := tr.Oldest(2); ok {
		t.Error("Oldest(2) found a message in an empty queue")
	}
	if pending(tr, 3) != 3 || tr.PendingTo(0) != 2 {
		t.Errorf("pending=%d PendingTo(0)=%d, want 3, 2", pending(tr, 3), tr.PendingTo(0))
	}
}

func TestDeliverRemovesOldestInstance(t *testing.T) {
	tr := New()
	m := msg(0, 1, "dup")
	tr.Send(m)
	tr.Send(msg(0, 2, "mid"))
	tr.Send(m) // second instance of the same message value
	if err := tr.Deliver(m); err != nil {
		t.Fatal(err)
	}
	// The first (oldest) instance is gone; "mid" is now oldest.
	if got, _ := tr.Oldest(0); got.Body != "mid" {
		t.Errorf("after Deliver, Oldest = %v, want the mid message", got)
	}
	if tr.PendingTo(0) != 2 {
		t.Errorf("PendingTo = %d, want 2", tr.PendingTo(0))
	}
	if err := tr.Deliver(msg(0, 9, "ghost")); err == nil {
		t.Error("delivering an absent message succeeded")
	}
}

func TestSeqAndPendingList(t *testing.T) {
	tr := New()
	tr.Send(msg(1, 0, "x"))
	tr.Send(msg(1, 0, "y"))
	list := queueOf(tr, 1)
	if len(list) != 2 || list[0].Body != "x" || list[1].Body != "y" {
		t.Errorf("queue of p1 = %v", list)
	}
}

func TestAdvance(t *testing.T) {
	tr := New()
	m := msg(0, 1, "in")
	tr.Send(m)
	e := model.Deliver(m)
	out := []model.Message{msg(1, 0, "out1"), msg(2, 0, "out2")}
	if err := tr.Advance(e, out); err != nil {
		t.Fatal(err)
	}
	if tr.PendingTo(0) != 0 || tr.PendingTo(1) != 1 || tr.PendingTo(2) != 1 {
		t.Errorf("queues after Advance: %d %d %d", tr.PendingTo(0), tr.PendingTo(1), tr.PendingTo(2))
	}
	// Null events only enqueue.
	if err := tr.Advance(model.NullEvent(1), []model.Message{msg(0, 1, "z")}); err != nil {
		t.Fatal(err)
	}
	if tr.PendingTo(0) != 1 {
		t.Errorf("null Advance did not enqueue send")
	}
	// Advancing with an absent delivery fails.
	if err := tr.Advance(model.Deliver(msg(0, 5, "none")), nil); err == nil {
		t.Error("Advance with absent delivery succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := New()
	m := msg(0, 1, "a")
	tr.Send(m)
	cl := clone(tr)
	if err := cl.Deliver(m); err != nil {
		t.Fatal(err)
	}
	if tr.PendingTo(0) != 1 {
		t.Error("Deliver on clone affected original")
	}
	cl.Send(msg(1, 0, "b"))
	if tr.PendingTo(1) != 0 {
		t.Error("Send on clone affected original")
	}
}

func TestNewFromConfigMirrorsBuffer(t *testing.T) {
	// Build a configuration with buffered messages via a tiny protocol.
	pr := senderProto{}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	c1 := model.MustApply(pr, c, model.NullEvent(0))
	tr := NewFromConfig(c1)
	if pending(tr, 2) != c1.Buffer().Len() {
		t.Errorf("tracker has %d pending, buffer has %d", pending(tr, 2), c1.Buffer().Len())
	}
	m, ok := tr.Oldest(1)
	if !ok || !c1.Buffer().Contains(m) {
		t.Errorf("tracker message %v not in buffer", m)
	}
}

// TestNewFromConfigEnqueuesEveryInstance pins the seeding order on a buffer
// that holds duplicates: Count(m) instances per distinct message, distinct
// messages in the buffer's canonical order.
func TestNewFromConfigEnqueuesEveryInstance(t *testing.T) {
	pr := chattyProto{}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	// Both processes broadcast "hello" twice: two equal instances each way.
	for _, e := range []model.Event{model.NullEvent(0), model.NullEvent(0), model.NullEvent(1), model.NullEvent(1)} {
		c = model.MustApply(pr, c, e)
	}
	tr := NewFromConfig(c)
	var want []model.Message
	for _, m := range c.Buffer().Messages() {
		if c.Buffer().Count(m) != 2 {
			t.Fatalf("buffer holds %d of %v, want 2", c.Buffer().Count(m), m)
		}
		want = append(want, m, m)
	}
	var got []model.Message
	for p := model.PID(0); p < 2; p++ {
		got = append(got, queueOf(tr, p)...)
	}
	slices.SortStableFunc(want, func(a, b model.Message) int { return int(a.To) - int(b.To) })
	if !slices.Equal(got, want) {
		t.Errorf("queues hold %v, want %v", got, want)
	}
	if pending(tr, 2) != 4 {
		t.Errorf("pending = %d, want 4", pending(tr, 2))
	}
}

// TestInPlaceDeliveryAliasing pins what in-place queues must not change: a
// queue read before a Deliver or Advance keeps its contents, and a CopyFrom
// copy taken before in-place operations on either side stays independent
// — including operations that append into capacity a delivery freed.
func TestInPlaceDeliveryAliasing(t *testing.T) {
	tr := New()
	a, b, c, d := msg(0, 1, "a"), msg(0, 2, "b"), msg(0, 1, "c"), msg(0, 2, "d")
	for _, m := range []model.Message{a, b, c} {
		tr.Send(m)
	}
	before := queueOf(tr, 0)
	cl := clone(tr)

	if err := tr.Deliver(b); err != nil { // middle: shifts c down in place
		t.Fatal(err)
	}
	tr.Send(d) // lands in the slot the shift vacated

	if err := tr.Advance(model.Deliver(a), nil); err != nil { // head: reslice
		t.Fatal(err)
	}
	if want := []model.Message{a, b, c}; !slices.Equal(before, want) {
		t.Errorf("queue read before the deliveries now reads %v, want %v", before, want)
	}
	if got, want := queueOf(cl, 0), []model.Message{a, b, c}; !slices.Equal(got, want) {
		t.Errorf("clone reads %v after deliveries on the original, want %v", got, want)
	}
	if got, want := queueOf(tr, 0), []model.Message{c, d}; !slices.Equal(got, want) {
		t.Errorf("original reads %v, want %v", got, want)
	}

	// And the other way round: in-place edits on the clone.
	if err := cl.Deliver(a); err != nil {
		t.Fatal(err)
	}
	if err := cl.Deliver(c); err != nil {
		t.Fatal(err)
	}
	cl.Send(a)
	if got, want := queueOf(tr, 0), []model.Message{c, d}; !slices.Equal(got, want) {
		t.Errorf("original reads %v after deliveries on the clone, want %v", got, want)
	}
	if got, want := queueOf(cl, 0), []model.Message{b, a}; !slices.Equal(got, want) {
		t.Errorf("clone reads %v, want %v", got, want)
	}
}

// senderProto broadcasts once; used to populate a buffer.
type senderProto struct{}

type senderState struct{ sent bool }

func (s senderState) Key() string {
	if s.sent {
		return "1"
	}
	return "0"
}
func (s senderState) Output() model.Output { return model.None }

func (senderProto) Name() string                            { return "sender" }
func (senderProto) N() int                                  { return 2 }
func (senderProto) Init(model.PID, model.Value) model.State { return senderState{} }
func (senderProto) Step(p model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	st := s.(senderState)
	if !st.sent {
		return senderState{sent: true}, model.AppendBroadcastOthers(nil, p, 2, "hello")
	}
	return st, nil
}

// chattyProto broadcasts the same message on every null step, so its buffer
// holds equal instances.
type chattyProto struct{ senderProto }

type chattyState int

func (s chattyState) Key() string          { return string(rune('0' + s)) }
func (s chattyState) Output() model.Output { return model.None }

func (chattyProto) Init(model.PID, model.Value) model.State { return chattyState(0) }
func (chattyProto) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	if m != nil {
		return s, nil
	}
	return s.(chattyState) + 1, model.AppendBroadcastOthers(nil, p, 2, "hello")
}
