package explore_test

import (
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestProbeWitnessesOutliveTheRun holds ProbeValencies to what its recycled
// run memory must not change. Witnesses kept from one probe print the same,
// and still replay, after many later probes — sequential and concurrent —
// whose runs reuse the same message slabs, queues and schedule buffers. And
// a value the probed configuration has already decided keeps its nil
// witness: the empty schedule, not a copy of some run's.
func TestProbeWitnessesOutliveTheRun(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	type kept struct {
		c       *model.Config
		wit     [2]model.Schedule
		found   [2]bool
		printed [2]string
	}
	var keep []kept
	for _, inputs := range []model.Inputs{in(0, 0, 1), in(0, 1, 1), in(1, 1, 0)} {
		for _, c := range firstConfigs(pr, inputs, 8) {
			w0, w1, f0, f1 := explore.ProbeValencies(pr, c, explore.ProbeOptions{})
			keep = append(keep, kept{c, [2]model.Schedule{w0, w1}, [2]bool{f0, f1}, [2]string{w0.String(), w1.String()}})
		}
	}

	start := model.MustInitial(pr, in(0, 0, 0))
	w0, _, f0, _ := explore.ProbeValencies(pr, start, explore.ProbeOptions{})
	if !f0 {
		t.Fatal("probe from 000 found no 0 decision")
	}
	decided, err := model.ApplySchedule(pr, start, w0)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, df0, df1 := explore.ProbeValencies(pr, decided, explore.ProbeOptions{})
	if !df0 || d0 != nil {
		t.Errorf("from a configuration that decided 0: found0 %v, witness %v; want true and nil", df0, d0)
	}
	if df1 || d1 != nil {
		t.Errorf("from a configuration that decided 0: found1 %v, witness %v; want false and nil", df1, d1)
	}

	churn := func(inputs model.Inputs) {
		for _, c := range firstConfigs(pr, inputs, 24) {
			explore.ProbeValencies(pr, c, explore.ProbeOptions{})
		}
	}
	churn(in(1, 0, 1))
	var wg sync.WaitGroup
	for _, inputs := range []model.Inputs{in(0, 1, 0), in(1, 0, 0), in(0, 0, 1), in(1, 1, 0)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(inputs)
		}()
	}
	wg.Wait()

	for i, k := range keep {
		for v := range k.wit {
			if got := k.wit[v].String(); got != k.printed[v] {
				t.Fatalf("kept witness %d for %d changed after later probes:\n  was %s\n  now %s", i, v, k.printed[v], got)
			}
			if k.found[v] {
				verifyWitness(t, pr, k.c, k.wit[v], model.Value(v))
			}
		}
	}
}

// BenchmarkProbeValencies is the per-layer view of the adversary op's
// probes: one ProbeValencies call on paxos(3) from 001, where the first runs
// find both values, and from 000, where no run finds a 1 and all 39 runs
// execute, the duelling-proposer ones to the step bound.
func BenchmarkProbeValencies(b *testing.B) {
	pr := protocols.NewPaxosSynod(3)
	for _, inputs := range []model.Inputs{in(0, 0, 1), in(0, 0, 0)} {
		b.Run(inputs.String(), func(b *testing.B) {
			c := model.MustInitial(pr, inputs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, f0, f1 := explore.ProbeValencies(pr, c, explore.ProbeOptions{})
				if !f0 || f1 != (inputs[2] == 1) {
					b.Fatalf("probe from %s found (0:%v, 1:%v)", inputs, f0, f1)
				}
			}
		})
	}
}
