package syncround_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/dls"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

// walkRow is one row of the walk table: a round system built from each
// input vector of N processes, and the property every configuration the
// walk keeps must have. A row that wants a violation passes when the walk
// finds one.
type walkRow struct {
	name   string
	n      int
	system func(model.Inputs) (syncround.System, error)
	// holds reports whether a configuration reached from in has the
	// row's property.
	holds         func(in model.Inputs, c syncround.Config) bool
	wantViolation bool
}

func crashRow(name string, alg syncround.Algorithm, n, f int, holds func(model.Inputs, syncround.Config) bool) walkRow {
	return walkRow{name: name, n: n, holds: holds, system: func(in model.Inputs) (syncround.System, error) {
		return syncround.CrashSystem(alg, in, f), nil
	}}
}

// leafAgreesValidly holds before round rounds ends; after it, it
// requires one decision, some process's input.
func leafAgreesValidly(rounds int) func(model.Inputs, syncround.Config) bool {
	return func(in model.Inputs, c syncround.Config) bool {
		if c.Round < rounds {
			return true
		}
		d := c.Decisions()
		for _, v := range d {
			if in.Count(v) == 0 {
				return false
			}
		}
		return syncround.Agree(d)
	}
}

// dlsDecidesInTime holds where the decisions made so far agree and, from
// the end of round GST+N-1 on, every live process has decided.
func dlsDecidesInTime(gst int) func(model.Inputs, syncround.Config) bool {
	return func(in model.Inputs, c syncround.Config) bool {
		d := c.Decisions()
		return syncround.Agree(d) && (c.Round < 4*(gst+len(in)-1) || len(d) == len(in))
	}
}

// path describes the choices that lead from the walk's root to nd.
func path(nd *syncround.Node) string {
	var steps []string
	for ; nd.Parent != nil; nd = nd.Parent {
		step := fmt.Sprintf("round %d:", nd.Round)
		for p, lost := range nd.Choice.Lost {
			if nd.Choice.Crash&(1<<p) != 0 {
				step += fmt.Sprintf(" p%d crashes reaching %v;", p, members(^lost, len(nd.Procs)))
			} else if lost != 0 {
				step += fmt.Sprintf(" p%d's message to %v is lost;", p, members(lost, len(nd.Procs)))
			}
		}
		steps = append([]string{step}, steps...)
	}
	return strings.Join(steps, " ")
}

// members lists the processes below n in set.
func members(set uint64, n int) []int {
	var ps []int
	for p := 0; p < n; p++ {
		if set&(1<<p) != 0 {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestWalkTable walks each row's system from every input vector, taking
// every choice its adversary has, and checks the row's property on every
// configuration kept. It replaces the hand-rolled crash-pattern sweeps:
// the walk reaches every crash round, victim set and partial delivery at
// once, and every pre-GST loss pattern for DLS.
func TestWalkTable(t *testing.T) {
	truncated := crashRow("TruncatedFloodSet{R:1}(3,1)", syncround.TruncatedFloodSet{R: 1}, 3, 1, leafAgreesValidly(1))
	truncated.wantViolation = true
	rows := []walkRow{
		crashRow("FloodSet(3,1)", syncround.FloodSet{}, 3, 1, leafAgreesValidly(2)),
		crashRow("FloodSet(4,1)", syncround.FloodSet{}, 4, 1, leafAgreesValidly(2)),
		crashRow("FloodSet(5,2)", syncround.FloodSet{}, 5, 2, leafAgreesValidly(3)),
		crashRow("EarlyFloodSet(3,1)", syncround.EarlyFloodSet{}, 3, 1, func(_ model.Inputs, c syncround.Config) bool {
			return c.Round < 2 || syncround.Agree(c.Decisions())
		}),
		truncated,
		{name: "DLS(N=3,F=1,GST=4)", n: 3, holds: dlsDecidesInTime(4), system: func(in model.Inputs) (syncround.System, error) {
			return dls.System(dls.Options{N: 3, F: 1, GST: 4}, in)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			states, edges, violations := 0, 0, 0
			for _, in := range model.AllInputs(row.n) {
				s, err := row.system(in)
				if err != nil {
					t.Fatal(err)
				}
				st, ed := s.Walk(func(nd *syncround.Node) bool {
					if row.holds(in, nd.Config) {
						return true
					}
					violations++
					if row.wantViolation {
						t.Logf("inputs %s: decisions %v after %s", in, nd.Decisions(), path(nd))
					} else {
						t.Errorf("inputs %s: decisions %v after %s", in, nd.Decisions(), path(nd))
					}
					return false
				})
				states, edges = states+st, edges+ed
			}
			t.Logf("%d states, %d edges over %d input vectors", states, edges, 1<<row.n)
			if row.wantViolation && violations == 0 {
				t.Error("the walk found no violation")
			}
		})
	}
}
