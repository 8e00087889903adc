package flp_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/flpsim/flp"
	"github.com/flpsim/flp/internal/experiments"
)

// One benchmark per reproduced artifact (see DESIGN.md §3 and
// EXPERIMENTS.md). Each iteration regenerates the experiment's full table;
// sizes are trimmed so a single iteration stays sub-second where possible.

func benchExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced an empty table")
		}
	}
}

func BenchmarkE1Commutativity(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E1Commutativity(100, 1)
	})
}

func BenchmarkE2InitialValency(b *testing.B) {
	benchExperiment(b, experiments.E2InitialValency)
}

func BenchmarkE3BivalencePreservation(b *testing.B) {
	benchExperiment(b, experiments.E3BivalencePreservation)
}

func BenchmarkE4AdversarialRun(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E4AdversarialRun(6, 10)
	})
}

func BenchmarkE5InitiallyDead(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E5InitiallyDead(8, 1)
	})
}

func BenchmarkE6CommitWindow(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E6CommitWindow(15)
	})
}

func BenchmarkE7FloodSet(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E7FloodSet(100, 1)
	})
}

func BenchmarkE8ByzantineOM(b *testing.B) {
	benchExperiment(b, experiments.E8ByzantineOM)
}

func BenchmarkE9BenOr(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E9BenOr(8)
	})
}

func BenchmarkE10PartialSynchrony(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E10PartialSynchrony(10)
	})
}

func BenchmarkE11Agreement(b *testing.B) {
	benchExperiment(b, experiments.E11Agreement)
}

func BenchmarkE12FailureDetector(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E12FailureDetector(8)
	})
}

func BenchmarkE13StateSpace(b *testing.B) {
	benchExperiment(b, experiments.E13StateSpace)
}

func BenchmarkE14ApproximateAgreement(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E14ApproximateAgreement(10)
	})
}

func BenchmarkE15AtomicRegister(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E15AtomicRegister(10)
	})
}

func BenchmarkE16ReliableBroadcast(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E16ReliableBroadcast(10)
	})
}

func BenchmarkE17Multivalued(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E17Multivalued(4)
	})
}

func BenchmarkE18Election(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.E18Election(0)
	})
}

func BenchmarkRegisterWorkload(b *testing.B) {
	scripts := [][]flp.ScriptOp{
		{flp.WriteOp(1), flp.ReadOp(), flp.WriteOp(2)},
		{flp.ReadOp(), flp.WriteOp(3), flp.ReadOp()},
	}
	for i := 0; i < b.N; i++ {
		res, err := flp.RunRegister(flp.RegisterConfig{
			Servers: 5, Scripts: scripts, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !flp.CheckLinearizable(res.History, 0) {
			b.Fatal("non-linearizable")
		}
	}
}

// BenchmarkE11ParallelExplore is the parallel-engine guardrail: the E11
// partial-correctness sweep of naivemajority (the heaviest exhaustive
// exploration in the suite) at fixed worker counts. Workers beyond
// GOMAXPROCS only add coordination overhead, so run with -cpu 4 (or more)
// to see the speedup; results are byte-identical at every worker count,
// which the differential tests in internal/explore pin.
func BenchmarkE11ParallelExplore(b *testing.B) {
	pr := flp.NewNaiveMajority(3)
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := flp.CheckPartialCorrectness(pr, flp.CheckOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.AgreementHolds || !rep.Complete {
					b.Fatal("report changed: naivemajority must violate agreement under an exhaustive sweep")
				}
			}
		})
	}
}

// Micro-benchmarks of the primitives everything above is built from.

func BenchmarkApplyStep(b *testing.B) {
	pr := flp.NewPaxosSynod(3)
	c, err := flp.Initial(pr, flp.Inputs{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	e := flp.NullEvent(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flp.Apply(pr, c, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyFinite(b *testing.B) {
	pr := flp.NewNaiveMajority(3)
	c, err := flp.Initial(pr, flp.Inputs{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := flp.Classify(pr, c, flp.CheckOptions{})
		if info.Valency != flp.Bivalent {
			b.Fatal("classification changed")
		}
	}
}

func BenchmarkProbeBivalencePaxos(b *testing.B) {
	pr := flp.NewPaxosSynod(3)
	c, err := flp.Initial(pr, flp.Inputs{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := flp.ClassifySmart(pr, c, flp.CheckOptions{MaxConfigs: 200}, flp.ProbeOptions{})
		if info.Valency != flp.Bivalent {
			b.Fatal("probe lost the certificate")
		}
	}
}

func BenchmarkAdversaryStagePaxos(b *testing.B) {
	pr := flp.NewPaxosSynod(3)
	probe := flp.ProbeOptions{}
	opt := flp.AdversaryOptions{
		Stages:  3,
		Probe:   &probe,
		Search:  flp.CheckOptions{MaxConfigs: 2000},
		Valency: flp.CheckOptions{MaxConfigs: 1500},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := flp.NewAdversary(pr, opt)
		if _, err := adv.RunFromInputs(flp.Inputs{0, 1, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFairRunPaxos(b *testing.B) {
	pr := flp.NewPaxosSynod(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flp.Run(pr, flp.Inputs{0, 1, 1}, flp.RandomFair{},
			flp.RunOptions{MaxSteps: 100000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllLiveDecided {
			b.Fatal("fair paxos run did not decide")
		}
	}
}

func BenchmarkBenOrRun(b *testing.B) {
	pr := flp.NewBenOr(5, 7)
	in := flp.Inputs{0, 1, 1, 0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flp.Run(pr, in, flp.RandomFair{},
			flp.RunOptions{MaxSteps: 300000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllLiveDecided {
			b.Fatal("ben-or run did not decide")
		}
	}
}

func BenchmarkDeadstartRun(b *testing.B) {
	pr := flp.NewInitiallyDead(7)
	in := flp.Inputs{0, 1, 1, 0, 1, 0, 1}
	crash := map[flp.PID]int{0: 0, 3: 0, 5: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flp.Run(pr, in, flp.RandomFair{},
			flp.RunOptions{MaxSteps: 100000, Seed: int64(i), CrashAfter: crash})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllLiveDecided {
			b.Fatal("deadstart run did not decide")
		}
	}
}

func BenchmarkFloodSet(b *testing.B) {
	in := flp.Inputs{0, 1, 1, 0, 1, 0, 1}
	for i := 0; i < b.N; i++ {
		res, err := flp.RunSync(flp.FloodSet{}, in, 3, flp.CrashPattern{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement {
			b.Fatal("floodset disagreed")
		}
	}
}

func BenchmarkByzantineOM2(b *testing.B) {
	cfg := flp.ByzantineConfig{N: 7, M: 2, Traitors: map[int]bool{1: true, 5: true}}
	for i := 0; i < b.N; i++ {
		res, err := flp.RunByzantine(cfg, flp.V1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.IC1(cfg) {
			b.Fatal("IC1 violated")
		}
	}
}

func BenchmarkConcurrentNetPaxos(b *testing.B) {
	pr := flp.NewPaxosSynod(3)
	in := flp.Inputs{0, 1, 1}
	for i := 0; i < b.N; i++ {
		res, err := flp.DriveNet(pr, in, flp.DriveOptions{MaxSteps: 100000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllLiveDecided {
			b.Fatal("concurrent paxos run did not decide")
		}
	}
}

func BenchmarkDetectorConsensus(b *testing.B) {
	in := flp.Inputs{0, 1, 1, 0, 1}
	for i := 0; i < b.N; i++ {
		opt := flp.FDOptions{N: 5, F: 2, Detector: flp.EventuallyAccurate{}, Lag: 3}
		res, err := flp.RunWithDetector(opt, in)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement {
			b.Fatal("detector consensus disagreed")
		}
	}
}

func BenchmarkDLSRun(b *testing.B) {
	opt := flp.DLSOptions{N: 5, F: 2, GST: 6, DropProb: 1.0}
	in := flp.Inputs{0, 1, 1, 0, 1}
	for i := 0; i < b.N; i++ {
		o := opt
		o.Seed = int64(i)
		res, err := flp.RunDLS(o, in)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement {
			b.Fatal("dls disagreed")
		}
	}
}
