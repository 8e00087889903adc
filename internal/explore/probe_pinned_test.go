package explore_test

import (
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// refQueues is send order kept the obvious way: one message list per
// destination, rebuilt on every delivery.
type refQueues map[model.PID][]model.Message

func (q refQueues) deliver(m model.Message) {
	i := slices.Index(q[m.To], m) // the oldest equal instance
	q[m.To] = append(append([]model.Message(nil), q[m.To][:i]...), q[m.To][i+1:]...)
}

// refPick selects p's next delivery from its pending list, oldest first.
type refPick func(pending []model.Message) model.Message

func refSenderFirst(q model.PID) refPick {
	return func(pending []model.Message) model.Message {
		if i := slices.IndexFunc(pending, func(m model.Message) bool { return m.From == q }); i >= 0 {
			return pending[i]
		}
		return pending[0]
	}
}

// refFairRun is one directed run written against immutable configurations:
// round-robin over order, each process receiving the message pick chooses
// or taking a null step unless that is a no-op; stop at the first decision,
// at quiescence or at maxSteps events.
func refFairRun(t *testing.T, pr model.Protocol, c *model.Config, order []model.PID, maxSteps int, pick refPick) (model.Schedule, *model.Config) {
	queues := refQueues{}
	for _, m := range c.Buffer().Messages() {
		for i := 0; i < c.Buffer().Count(m); i++ {
			queues[m.To] = append(queues[m.To], m)
		}
	}
	var sigma model.Schedule
	for progressed := true; progressed; {
		progressed = false
		for _, p := range order {
			e := model.NullEvent(p)
			if pending := queues[p]; len(pending) > 0 {
				e = model.Deliver(pick(pending))
			} else if model.IsNoOp(pr, c, e) {
				continue
			}
			nc, sends, err := model.ApplyTraced(pr, c, e)
			if err != nil {
				t.Fatalf("%s: reference run: %v", pr.Name(), err)
			}
			if e.Msg != nil {
				queues.deliver(*e.Msg)
			}
			for _, m := range sends {
				queues[m.To] = append(queues[m.To], m)
			}
			c, sigma, progressed = nc, append(sigma, e), true
			if nc.Output(p).Decided() || len(sigma) >= maxSteps {
				return sigma, c
			}
		}
	}
	return sigma, c
}

// refProbe is ProbeValencies at its defaults (crash subsets of size ≤ 1,
// 600 steps), the run family spelled out: no crash then each single crash;
// FIFO, LIFO, then sender-priority for each live process; every rotation.
func refProbe(t *testing.T, pr model.Protocol, c *model.Config) (wit [2]model.Schedule, found [2]bool) {
	record := func(sigma model.Schedule, end *model.Config) {
		for _, v := range end.DecisionValues() {
			if !found[v] {
				found[v], wit[v] = true, sigma
			}
		}
	}
	record(nil, c)
	for crashed := -1; crashed < c.N(); crashed++ {
		var live []model.PID
		for p := 0; p < c.N(); p++ {
			if p != crashed {
				live = append(live, model.PID(p))
			}
		}
		picks := []refPick{
			func(pending []model.Message) model.Message { return pending[0] },
			func(pending []model.Message) model.Message { return pending[len(pending)-1] },
		}
		for _, q := range live {
			picks = append(picks, refSenderFirst(q))
		}
		for _, pick := range picks {
			for off := range live {
				if found[0] && found[1] {
					return
				}
				order := append(slices.Clone(live[off:]), live[:off]...)
				record(refFairRun(t, pr, c, order, explore.DefaultProbeMaxSteps, pick))
			}
		}
	}
	return
}

// TestProbeWitnessesPinned pins the probe's behaviour, not just its
// soundness: over the first configurations of every registry protocol and
// protogen fixture, ProbeValencies returns exactly the witnesses the
// reference family above finds — same runs, same order, same step bound —
// and each witness replays through model.Apply to a configuration holding
// the value it claims.
func TestProbeWitnessesPinned(t *testing.T) {
	perProtocol := 60
	if testing.Short() {
		perProtocol = 12
	}
	pin := func(name string, pr model.Protocol, in model.Inputs) {
		t.Run(name, func(t *testing.T) {
			for i, c := range firstConfigs(pr, in, perProtocol) {
				w0, w1, f0, f1 := explore.ProbeValencies(pr, c, explore.ProbeOptions{})
				wit, found := refProbe(t, pr, c)
				if f0 != found[0] || f1 != found[1] {
					t.Fatalf("configuration %d: found (%v, %v), reference (%v, %v)", i, f0, f1, found[0], found[1])
				}
				for v, w := range []model.Schedule{w0, w1} {
					if w.String() != wit[v].String() {
						t.Fatalf("configuration %d: witness for %d is\n  %s\nreference\n  %s", i, v, w, wit[v])
					}
					if !found[v] {
						continue
					}
					end := c
					for _, e := range w {
						var err error
						if end, err = model.Apply(pr, end, e); err != nil {
							t.Fatalf("configuration %d: witness for %d does not replay: %v", i, v, err)
						}
					}
					if !slices.Contains(end.DecisionValues(), model.Value(v)) {
						t.Fatalf("configuration %d: witness for %d ends with decisions %v", i, v, end.DecisionValues())
					}
				}
			}
		})
	}
	eachKernelAndFixture(t, pin)
}
