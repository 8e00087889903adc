package fifo

import (
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// TestAllocsTrackerSteadyState pins that a queue stops growing: once a
// queue has held its backlog, a Send followed by the delivery of the head
// reuses the slot the delivery freed, so the cycle allocates nothing. A
// delivery that resliced the head off would leave the slot behind the
// queue's start, and every few cycles Send would regrow the queue.
func TestAllocsTrackerSteadyState(t *testing.T) {
	tr := New()
	backlog := []model.Message{msg(0, 1, "a"), msg(0, 2, "b"), msg(0, 1, "c"), msg(1, 0, "d")}
	for _, m := range backlog {
		tr.Send(m)
	}
	i := 0
	cycle := func() {
		tr.Send(backlog[i%len(backlog)])
		head, _ := tr.Oldest(backlog[i%len(backlog)].To)
		if err := tr.Deliver(head); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 16 {
		cycle() // warm-up: each queue reaches its backlog plus one
	}
	// One measured run of 1,000 cycles: AllocsPerRun truncates its average
	// to an integer, which would hide an amortized regrowth.
	cycles := func() {
		for range 1000 {
			cycle()
		}
	}
	if got := testing.AllocsPerRun(1, cycles); got != 0 {
		t.Errorf("1,000 Send + head-Deliver cycles make %.0f allocations, want 0", got)
	}
	if pending(tr, 2) != len(backlog) { // every cycle sends one and delivers one
		t.Errorf("pending = %d after the cycles, want %d", pending(tr, 2), len(backlog))
	}
}
