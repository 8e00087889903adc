// Command flpsim runs one protocol execution under a chosen scheduler with
// optional crash injection and prints what happened.
//
// Usage:
//
//	flpsim -protocol paxos -n 3 -inputs 011 -sched rr
//	flpsim -protocol 2pc -n 3 -inputs 111 -sched delay:0      # block 2PC
//	flpsim -protocol benor -n 5 -inputs 00111 -crash 4:0 -seed 7
//	flpsim -protocol deadstart -n 5 -inputs 01101 -crash 0:0,2:0
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/flpsim/flp"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

func main() {
	var (
		name     = flag.String("protocol", "paxos", "protocol to run (flpcheck -list, plus 'deadstart')")
		n        = flag.Int("n", 3, "number of processes (a gen: name carries its own)")
		inputs   = flag.String("inputs", "", "input bits, e.g. 011 (default: alternating)")
		sched    = flag.String("sched", "random", "scheduler: random | rr | delay:<pid>")
		seed     = flag.Int64("seed", 1, "scheduler seed")
		maxSteps = flag.Int("maxsteps", 50000, "step bound (at least 1)")
		crash    = flag.String("crash", "", "crash injection, e.g. 0:0,2:5 (pid:afterSteps; 0 = initially dead)")
		trace    = flag.Bool("trace", false, "print the full event schedule")
		diagram  = flag.Bool("diagram", false, "render the run as a space-time diagram with a fairness audit")
	)
	flag.Parse()
	nSet := false
	flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })

	pr, err := buildProtocol(*name, *n, nSet)
	if err != nil {
		fatalf("%v", err)
	}
	in, err := parseInputs(*inputs, pr.N())
	if err != nil {
		fatalf("%v", err)
	}
	scheduler, err := buildScheduler(*sched, pr.N())
	if err != nil {
		fatalf("%v", err)
	}
	crashes, err := parseCrashes(*crash, pr.N())
	if err != nil {
		fatalf("%v", err)
	}
	if *maxSteps < 1 {
		fatalf("-maxsteps %d: must be at least 1", *maxSteps)
	}
	res, err := flp.Run(pr, in, scheduler, flp.RunOptions{
		MaxSteps:       *maxSteps,
		Seed:           *seed,
		CrashAfter:     crashes,
		RecordSchedule: *trace || *diagram,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("protocol:  %s\n", res.Protocol)
	fmt.Printf("scheduler: %s (seed %d)\n", res.Scheduler, *seed)
	fmt.Printf("inputs:    %s\n", res.Inputs)
	fmt.Printf("steps:     %d\n", res.Steps)
	fmt.Printf("decisions: %s\n", renderDecisions(res))
	switch {
	case res.AgreementViolated:
		fmt.Println("outcome:   AGREEMENT VIOLATED — two processes decided differently")
	case res.AllLiveDecided:
		v, _ := res.DecidedValue()
		fmt.Printf("outcome:   consensus on %v\n", v)
	case res.Quiescent:
		fmt.Println("outcome:   BLOCKED — the system went quiescent without a decision")
	default:
		fmt.Println("outcome:   UNDECIDED within the step bound")
	}
	if *trace {
		fmt.Println("\nschedule:")
		for i, e := range res.Schedule {
			fmt.Printf("  %4d  %s\n", i, e)
		}
	}
	if *diagram {
		d, err := flp.ReplayDiagram(pr, in, res.Schedule)
		if err != nil {
			fatalf("diagram: %v", err)
		}
		fmt.Println()
		fmt.Print(d.String())
	}
}

// buildProtocol resolves -protocol and -n (nSet: -n was given): deadstart,
// the Section 4 protocol no checker takes, or any name protocols.Resolve
// knows, a gen: name at its own count unless -n is set. Resolve refuses an
// n below 2 whatever the name, deadstart's included.
func buildProtocol(name string, n int, nSet bool) (flp.Protocol, error) {
	if protogen.IsGenerated(name) && !nSet {
		n = 0
	}
	if name == "deadstart" && n >= 2 {
		return flp.NewInitiallyDead(n), nil
	}
	return protocols.Resolve(name, n)
}

// parseInputs reads -inputs, alternating inputs when it is empty.
func parseInputs(s string, n int) (flp.Inputs, error) {
	if s == "" {
		return model.AlternatingInputs(n), nil
	}
	return model.ParseInputs(s, n)
}

func buildScheduler(s string, n int) (flp.Scheduler, error) {
	switch {
	case s == "random":
		return flp.RandomFair{}, nil
	case s == "rr":
		return flp.NewRoundRobin(), nil
	case strings.HasPrefix(s, "delay:"):
		p, err := strconv.Atoi(strings.TrimPrefix(s, "delay:"))
		if err != nil || p < 0 || p >= n {
			return nil, fmt.Errorf("bad delay victim in %q (want a pid in [0, %d))", s, n)
		}
		return flp.Delayed{Victim: flp.PID(p), Inner: flp.RandomFair{}}, nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (random | rr | delay:<pid>)", s)
}

func parseCrashes(s string, n int) (map[flp.PID]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[flp.PID]int{}
	for _, part := range strings.Split(s, ",") {
		fields := strings.SplitN(part, ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad crash spec %q (want pid:afterSteps)", part)
		}
		p, err1 := strconv.Atoi(fields[0])
		k, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || p < 0 || p >= n || k < 0 {
			return nil, fmt.Errorf("bad crash spec %q", part)
		}
		out[flp.PID(p)] = k
	}
	return out, nil
}

func renderDecisions(res *flp.RunResult) string {
	if len(res.Decisions) == 0 {
		return "(none)"
	}
	parts := make([]string, 0, len(res.Decisions))
	for p := 0; p < len(res.Inputs); p++ {
		if v, ok := res.Decisions[flp.PID(p)]; ok {
			parts = append(parts, fmt.Sprintf("p%d=%v", p, v))
		}
	}
	return strings.Join(parts, " ")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "flpsim: "+format+"\n", args...)
	os.Exit(1)
}
