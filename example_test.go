package flp_test

import (
	"fmt"

	"github.com/flpsim/flp"
)

// Classifying a configuration: NaiveMajority's mixed-input initial
// configuration is bivalent — both decision values reachable, witnessed by
// concrete schedules.
func ExampleClassify() {
	pr := flp.NewNaiveMajority(3)
	c, _ := flp.Initial(pr, flp.Inputs{0, 1, 1})
	info := flp.Classify(pr, c, flp.CheckOptions{})
	fmt.Println(info.Valency, info.Exact)
	// Output: bivalent true
}

// Lemma 2 as a census: exactly the mixed-majority input vectors of
// NaiveMajority are bivalent.
func ExampleCensusInitial() {
	census, _ := flp.CensusInitial(flp.NewNaiveMajority(3), flp.CheckOptions{})
	fmt.Println("bivalent:", census.Counts[flp.Bivalent])
	fmt.Println("first:", census.Bivalent.Inputs)
	// Output:
	// bivalent: 3
	// first: 011
}

// The Theorem 1 adversary constructs a non-deciding admissible run against
// Paxos; independent verification replays it.
func ExampleNewAdversary() {
	pr := flp.NewPaxosSynod(3)
	probe := flp.ProbeOptions{}
	adv := flp.NewAdversary(pr, flp.AdversaryOptions{
		Stages:  6,
		Probe:   &probe,
		Search:  flp.CheckOptions{MaxConfigs: 2000},
		Valency: flp.CheckOptions{MaxConfigs: 1500},
	})
	res, _ := adv.RunFromInputs(flp.Inputs{0, 1, 1})
	rep, _ := flp.VerifyAdversaryRun(pr, res)
	fmt.Printf("stages=%d decided=%d rotations=%d\n", rep.Stages, rep.DecidedCount, rep.Rotations)
	// Output: stages=6 decided=0 rotations=2
}

// Running a protocol under a fair scheduler: the same Paxos instance the
// adversary stalls forever decides immediately when scheduling is benign.
func ExampleRun() {
	pr := flp.NewPaxosSynod(3)
	res, _ := flp.Run(pr, flp.Inputs{0, 1, 1}, flp.NewRoundRobin(), flp.RunOptions{})
	v, unanimous := res.DecidedValue()
	fmt.Println(res.AllLiveDecided, unanimous, v)
	// Output: true true 1
}

// The agreement checker produces a concrete two-decision witness for
// protocols that trade away safety.
func ExampleCheckPartialCorrectness() {
	rep, _ := flp.CheckPartialCorrectness(flp.NewNaiveMajority(3), flp.CheckOptions{})
	fmt.Println("agreement:", rep.AgreementHolds)
	fmt.Println("witness inputs:", rep.Violation.Inputs)
	// Output:
	// agreement: false
	// witness inputs: 011
}

// The window of vulnerability: a delayed coordinator blocks asynchronous
// two-phase commit with every vote already cast.
func ExampleDelayed() {
	pr := flp.NewTwoPhaseCommit(3)
	res, _ := flp.Run(pr, flp.Inputs{1, 1, 1},
		flp.Delayed{Victim: flp.Coordinator, Inner: flp.NewRoundRobin()},
		flp.RunOptions{})
	fmt.Println(res.Blocked, len(res.Decisions))
	// Output: true 0
}

// Theorem 2's protocol decides with two of five processes dead from the
// start.
func ExampleNewInitiallyDead() {
	pr := flp.NewInitiallyDead(5)
	res, _ := flp.Run(pr, flp.Inputs{0, 1, 1, 0, 1}, flp.NewRoundRobin(),
		flp.RunOptions{CrashAfter: map[flp.PID]int{1: 0, 3: 0}})
	_, unanimous := res.DecidedValue()
	fmt.Println(res.AllLiveDecided, unanimous)
	// Output: true true
}

// FloodSet solves in the synchronous model what Theorem 1 forbids in the
// asynchronous one — in exactly f+1 rounds.
func ExampleRunSync() {
	res, _ := flp.RunSync(flp.FloodSet{}, flp.Inputs{0, 1, 1, 0, 1}, 2, flp.CrashPattern{})
	fmt.Println(res.Rounds, res.Agreement, res.Decisions[0])
	// Output: 3 true 0
}
