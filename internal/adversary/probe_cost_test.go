package adversary_test

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// advKernel is one adversary operation of the lemma-pipeline workload:
// protocol, stage count, the options flpcheck uses on unbounded protocols,
// and the input vectors the workload runs it from.
type advKernel struct {
	name   string
	pr     model.Protocol
	stages int
	inputs []model.Inputs
}

func advKernels() []advKernel {
	mixed := []model.Inputs{{0, 0, 1}, {0, 1, 0}, {0, 1, 1}, {1, 0, 0}, {1, 0, 1}, {1, 1, 0}}
	return []advKernel{
		{"paxos3x12", protocols.NewPaxosSynod(3), 12, mixed},
		{"paxos3-bounded1x4", protocols.NewBoundedPaxosSynod(3, 1), 4, mixed[1:5]},
		{"benor3x3", protocols.NewBenOrDeterministic(3, 1), 3, mixed[:1]},
	}
}

// TestAdversaryScheduleStable pins what the probe's run family decides: on
// the three adversary kernels the construction commits the same schedule,
// examining the same number of configurations per stage, at 1 and 8
// workers, and the verifier accepts it.
func TestAdversaryScheduleStable(t *testing.T) {
	for _, k := range advKernels() {
		inputs := k.inputs
		if testing.Short() {
			inputs = inputs[:1]
		}
		for _, in := range inputs {
			var ref *adversary.Result
			for _, workers := range []int{1, 8} {
				opt := paxosOptions(k.stages)
				opt.Workers = workers
				res, err := adversary.New(k.pr, opt).RunFromInputs(in)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", k.name, in, workers, err)
				}
				if _, err := adversary.Verify(k.pr, res); err != nil {
					t.Errorf("%s %s workers=%d: Verify: %v", k.name, in, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if ref.Schedule.String() != res.Schedule.String() {
					t.Errorf("%s %s: schedule differs between 1 and %d workers", k.name, in, workers)
				}
				for i := range ref.Stages {
					if ref.Stages[i].Examined != res.Stages[i].Examined {
						t.Errorf("%s %s stage %d: examined %d at 1 worker, %d at %d",
							k.name, in, i, ref.Stages[i].Examined, res.Stages[i].Examined, workers)
					}
				}
			}
		}
	}
}

// probeBytesPerStep runs full probes of paxos(3) from the unanimous
// initial configuration — no run can find the second value, so all 39 runs
// execute, the duelling-proposer ones to the step bound — and returns the
// bytes allocated per protocol step taken by the warmest of eight. A probe
// takes its run memory from a sync.Pool, which may hand it none: under
// -race it drops a random quarter of what is put back, and a goroutine
// that moved to another P misses what its last probe left, which
// GOMAXPROCS 1 rules out.
func probeBytesPerStep(t *testing.T, maxSteps int) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var steps atomic.Int64
	pr := modeltest.StepCounter{Protocol: protocols.NewPaxosSynod(3), Steps: &steps}
	c := model.MustInitial(pr, model.Inputs{0, 0, 0})
	popt := explore.ProbeOptions{MaxSteps: maxSteps}
	explore.ProbeValencies(pr, c, popt) // warm: lazy set-up is not the probe's cost
	least := math.Inf(1)
	for range 8 {
		steps.Store(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, f0, f1 := explore.ProbeValencies(pr, c, popt)
		runtime.ReadMemStats(&after)
		if !f0 || f1 {
			t.Fatalf("probe from 000 found (0:%v, 1:%v), want only 0", f0, f1)
		}
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(steps.Load()))
	}
	return least
}

// TestAllocsProbeBytesPerStep pins the cost of a directed probe step: what
// Protocol.Step allocates — the successor state, one sends slice and the
// message bodies — and nothing of the probe's own once its run memory is
// warm. The delivered message goes into the run's message slab, the
// tracker's queues reuse the slots deliveries free, and the state, key and
// schedule buffers come back from the last probe. With a tracker that
// copies a queue per delivery the figure grows with the queue, hence with
// the run length; in place it does not. A no-op null check builds one
// state key, not two (the run carries the current one), but this fixture
// makes 32 of them in 20,184 steps. The reading was 340 with a boxed
// message per delivery, a queue regrown behind every head delivery and
// three slices per broadcasting Paxos step; it is 187 (190 under -race).
func TestAllocsProbeBytesPerStep(t *testing.T) {
	const ceiling = 196 // bytes per step at the default bound: 187 measured + 5 %
	got := probeBytesPerStep(t, explore.DefaultProbeMaxSteps)
	short := probeBytesPerStep(t, explore.DefaultProbeMaxSteps/4)
	t.Logf("%.0f B per probe step at %d steps per run, %.0f B at %d",
		got, explore.DefaultProbeMaxSteps, short, explore.DefaultProbeMaxSteps/4)
	if got > ceiling {
		t.Errorf("%.0f B per probe step, ceiling %d", got, ceiling)
	}
	if got > 1.25*short {
		t.Errorf("bytes per step grow with run length: %.0f B at the default bound, %.0f B at a quarter of it", got, short)
	}
}

var benchSink *adversary.Result

// BenchmarkAdversaryOp is one lemma-pipeline adversary op per kernel —
// RunFromInputs plus Verify — over the kernel's input vectors.
func BenchmarkAdversaryOp(b *testing.B) {
	for _, k := range advKernels() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := k.inputs[i%len(k.inputs)]
				res, err := adversary.New(k.pr, paxosOptions(k.stages)).RunFromInputs(in)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := adversary.Verify(k.pr, res); err != nil {
					b.Fatalf("%s: %v", in, err)
				}
				benchSink = res
			}
		})
	}
}
