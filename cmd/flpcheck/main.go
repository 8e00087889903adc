// Command flpcheck runs the FLP model checker against a named protocol:
// the Lemma 2 initial-valency census, Lemma 3 frontier checks, the partial
// correctness (agreement/nontriviality) audit, and the Theorem 1 adversary.
// One census classifies each initial configuration once; the Lemma 2
// proof walk, Lemma 3's bivalent root and the adversary's starting
// configuration all read it.
//
// Usage:
//
//	flpcheck -protocol naivemajority -n 3            # full checker battery
//	flpcheck -protocol paxos -n 3 -adversary 12      # livelock Paxos for 12 stages
//	flpcheck -protocol 'gen:j1:...'                  # a generated protocol, at its own n
//	flpcheck -conformance -protocol 'gen:j1:...' -inputs 011 -budget 250
//	                                                 # replay one conformance case (a fixture's fields)
//	flpcheck -list                                   # available protocols
//
// The distributed engine is cross-checked against the local one by
// `flpcluster explore -cluster loopback:W`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/flpsim/flp"
	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/conformance"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

func main() {
	var (
		name       = flag.String("protocol", "naivemajority", "protocol to check (see -list), or a generated protocol's gen: name")
		n          = flag.Int("n", 3, "number of processes (a gen: name runs at its own count when -n is not given)")
		budget     = flag.Int("budget", 200000, "max configurations per exploration")
		stages     = flag.Int("adversary", 0, "also run the Theorem 1 adversary for this many stages")
		skipL3     = flag.Bool("skip-lemma3", false, "skip the Lemma 3 frontier census")
		skipAgree  = flag.Bool("skip-agreement", false, "skip the partial-correctness audit")
		genseed    = flag.Uint64("genseed", 0, "check the generated protocol Derive(seed, DefaultDials(n)) instead of -protocol (0 = off)")
		conf       = flag.Bool("conformance", false, "run the cross-engine conformance harness on the selected protocol and exit")
		inputs     = flag.String("inputs", "", "with -conformance, check only these input bits (e.g. 011) instead of every assignment")
		atlasDir   = flag.String("atlas-dir", "", "directory for the persistent atlas store: the Lemma 2 census loads/persists its valency atlases there, so repeat runs skip exploration ('' = off)")
		list       = flag.Bool("list", false, "list available protocols and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	defer profiles(*cpuprofile, *memprofile)()

	if *list {
		fmt.Println("available protocols:", strings.Join(flp.ProtocolNames(), ", "))
		return
	}
	if *inputs != "" && !*conf {
		fatalf("-inputs selects a conformance case; it needs -conformance")
	}
	nSet := false
	flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
	switch {
	case *genseed != 0:
		sp := protogen.Derive(*genseed, protogen.DefaultDials(*n))
		*name, *n = sp.Name(), sp.N
	case protogen.IsGenerated(*name) && !nSet:
		*n = 0 // the name carries its process count
	}
	pr, err := protocols.Resolve(*name, *n)
	if err != nil {
		fatalf("%v", err)
	}
	if err := model.CheckInputsN(pr.N()); err != nil {
		fatalf("%v", err) // every mode loops over all 2^n roots
	}
	opt := flp.CheckOptions{MaxConfigs: *budget}
	unbounded := protocols.Unbounded(*name)

	fmt.Printf("protocol: %s\n\n", pr.Name())
	if *conf {
		runConformance(*name, pr.N(), *inputs, *budget)
		return
	}
	atlases := explore.NewAtlasCache()
	var store *atlasstore.Store
	if *atlasDir != "" {
		store, err = atlasstore.Open(*atlasDir)
		if err != nil {
			fatalf("%v", err)
		}
		atlases.SetBackend(store)
	}
	census := runLemma2(pr, opt, unbounded, atlases)
	if store != nil {
		st := store.Stats()
		fmt.Printf("  atlas store (%s): %d hits, %d misses, %d resumes, %d refused\n\n",
			*atlasDir, st.Hits, st.Misses, st.Resumes, st.Refused)
	}
	if !unbounded {
		fmt.Println("== Lemma 2 proof walk: adjacent univalent pairs ==")
		runLemma2Proof(pr, opt, census)
	}
	if !*skipL3 {
		runLemma3(pr, opt, unbounded, census.Bivalent, atlases)
	}
	if !*skipAgree {
		runAgreement(pr, opt, unbounded)
	}
	if *stages > 0 {
		runAdversary(pr, *stages, unbounded, census.Bivalent)
	}
}

// runConformance sweeps every input assignment, or only the one bits
// names, through the cross-engine conformance harness: sequential,
// parallel, distributed (fault-free and under a scripted worker kill),
// and the valency atlas must all produce byte-identical results. One
// (name, bits, budget) case is what a corpus fixture or a fuzzer's shrunk
// reproducer pins, so this replays it exactly.
func runConformance(name string, n int, bits string, budget int) {
	ins := flp.AllInputs(n)
	if bits != "" {
		in, err := model.ParseInputs(bits, n)
		if err != nil {
			fatalf("%v", err)
		}
		ins = []model.Inputs{in}
	}
	fmt.Println("== Cross-engine conformance ==")
	if budget > 2000 {
		// The contract holds on truncated explorations exactly as on
		// complete ones, so conformance never needs the checker's full
		// budget; capping keeps the 2^n-input sweep interactive.
		budget = 2000
	}
	for _, in := range ins {
		c := enginetest.Case{Protocol: name, N: n, Inputs: in, Options: explore.Options{MaxConfigs: budget}}
		if err := conformance.Check(c); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  inputs %s: all engines agree\n", in)
	}
	fmt.Printf("\n  sequential, parallel, distributed (plain and with a scripted kill), and atlas\n  engines produced byte-identical results at budget %d\n", budget)
}

// runLemma2 prints the Lemma 2 table and returns its census: every
// initial configuration classified once, from its valency atlas through
// atlases (backed by -atlas-dir when set; per-configuration Classify when
// the reachable set exceeds the budget) or, on an unbounded protocol, by
// directed probes and a 2,000-configuration search.
func runLemma2(pr flp.Protocol, opt flp.CheckOptions, unbounded bool, atlases *explore.AtlasCache) flp.InitialCensus {
	fmt.Println("== Lemma 2: initial configuration valencies ==")
	classify := func(c *flp.Config, o flp.CheckOptions) flp.ValencyInfo {
		return explore.ClassifyRootCached(pr, c, o, atlases)
	}
	if unbounded {
		opt = flp.CheckOptions{MaxConfigs: 2000}
		classify = func(c *flp.Config, o flp.CheckOptions) flp.ValencyInfo {
			return flp.ClassifySmart(pr, c, o, flp.ProbeOptions{})
		}
	}
	census, err := explore.Census(pr, opt, classify, func(iv explore.InitialValency) bool {
		exact := ""
		if !iv.Info.Exact {
			exact = " (budget-limited)"
		}
		fmt.Printf("  inputs %s: %s%s, %d configurations explored\n", iv.Inputs, iv.Info.Valency, exact, iv.Info.Visited)
		return true
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println()
	return census
}

func runLemma2Proof(pr flp.Protocol, opt flp.CheckOptions, census flp.InitialCensus) {
	steps, err := census.Lemma2Proof(pr, opt)
	if err != nil {
		fatalf("%v", err)
	}
	if len(steps) == 0 {
		fmt.Println("  no adjacent 0-valent/1-valent pairs (a bivalent configuration separates the regions, or one region is empty)")
		fmt.Println()
		return
	}
	for _, s := range steps {
		fmt.Printf("  pair %s/%s (differ at p%d): ", s.Zero, s.One, s.Differ)
		switch {
		case s.Contradiction():
			fmt.Println("CONTRADICTION CONSTRUCTED — the model is broken!")
		case !s.SigmaFound:
			fmt.Printf("no deciding run exists with p%d silent — the protocol is not fault tolerant, which is how it escapes Lemma 2\n", s.Differ)
		default:
			fmt.Printf("σ found (%d events) but decisions diverge; pair is not genuinely univalent\n", len(s.Sigma))
		}
	}
	fmt.Println()
}

// runLemma3 examines the frontiers of the census's first bivalent initial
// configuration, one per process's null event, sharing the census's
// atlases.
func runLemma3(pr flp.Protocol, opt flp.CheckOptions, unbounded bool, bivalent *explore.InitialValency, atlases *explore.AtlasCache) {
	fmt.Println("== Lemma 3: bivalence-preserving extensions ==")
	if bivalent == nil {
		fmt.Println("  no bivalent initial configuration: the protocol escapes the theorem's hypotheses")
		fmt.Println()
		return
	}
	fmt.Printf("  bivalent initial configuration: inputs %s\n", bivalent.Inputs)
	if unbounded {
		fmt.Println("  (frontier census needs a finite protocol; skipped for unbounded state spaces)")
		fmt.Println()
		return
	}
	c, err := flp.Initial(pr, bivalent.Inputs)
	if err != nil {
		fatalf("%v", err)
	}
	cache := flp.NewValencyCache(pr, opt)
	cache.ShareAtlasBuilds(atlases)
	for p := 0; p < pr.N(); p++ {
		e := flp.NullEvent(flp.PID(p))
		res, err := flp.CensusLemma3(pr, c, e, opt, cache)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  e = %s: frontier |ℰ| = %d, bivalent member found = %v (witness |σ| = %d)\n",
			e, res.FrontierSize, res.BivalentFound, len(res.Sigma))
	}
	if a, ok := atlases.Cached(pr, c, opt); ok {
		printLemma3Atlas(a)
	} else {
		fmt.Println("  (reach(C) is over budget: no whole-atlas tally)")
	}
	fmt.Println()
}

// printLemma3Atlas prints Lemma 3 over the bivalent root's whole atlas:
// every bivalent C, every applicable e, and the first failure's blocking
// certificate when the lemma fails somewhere.
func printLemma3Atlas(a *explore.Atlas) {
	pairs, holds := 0, 0
	var first *explore.Lemma3Failure
	var firstEvent flp.Event
	tallies := explore.Lemma3Atlas(a)
	for _, t := range tallies {
		pairs += t.Pairs
		holds += t.Holds
		if first == nil && len(t.Failures) > 0 {
			first, firstEvent = &t.Failures[0], t.Event
		}
	}
	fmt.Printf("  whole atlas: %d of %d configurations bivalent; Lemma 3 holds at %d of %d (bivalent C, e) pairs over %d events\n",
		a.Census()[explore.Bivalent], a.Len(), holds, pairs, len(tallies))
	if first != nil {
		fmt.Printf("  %d failures, each blocked: the first, e = %s, reaches C₀ in %d events, where p%d crashes and no run decides\n",
			pairs-holds, firstEvent, len(first.Schedule), first.P)
	}
}

func runAgreement(pr flp.Protocol, opt flp.CheckOptions, unbounded bool) {
	fmt.Println("== Partial correctness (Section 2) ==")
	if unbounded {
		opt = flp.CheckOptions{MaxConfigs: 2000}
	}
	rep, err := flp.CheckPartialCorrectness(pr, opt)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("  agreement (condition 1): %v", rep.AgreementHolds)
	if !rep.Complete {
		fmt.Printf(" (within %d explored configurations)", rep.Configs)
	}
	fmt.Println()
	if rep.Violation != nil {
		fmt.Printf("  violation witness: inputs %s, schedule of %d events, deciders %v\n",
			rep.Violation.Inputs, len(rep.Violation.Schedule), rep.Violation.Deciders)
	}
	fmt.Printf("  nontriviality (condition 2): both values reachable = %v\n", rep.Nontrivial)
	fmt.Println()
}

// runAdversary runs the Theorem 1 construction from the census's first
// bivalent initial configuration.
func runAdversary(pr flp.Protocol, stages int, unbounded bool, bivalent *explore.InitialValency) {
	fmt.Printf("== Theorem 1 adversary: %d stages ==\n", stages)
	opt := flp.AdversaryOptions{Stages: stages}
	if unbounded {
		opt = adversary.ForUnbounded(opt)
	}
	var res *flp.AdversaryResult
	err := flp.ErrNoBivalentInitial
	if bivalent != nil {
		res, err = flp.NewAdversary(pr, opt).RunFromInputs(bivalent.Inputs)
	}
	if err != nil {
		fmt.Printf("  adversary cannot proceed: %v\n", err)
		fmt.Println("  (this is itself a finding: the protocol escapes the impossibility by violating one of its hypotheses)")
		return
	}
	rep, err := flp.VerifyAdversaryRun(pr, res)
	if err != nil {
		fatalf("verification failed: %v", err)
	}
	fmt.Printf("  inputs %s: %d stages, %d steps, %d rotations, min steps/process %d\n",
		res.Inputs, rep.Stages, rep.Steps, rep.Rotations, rep.MinStepsPerProcess)
	fmt.Printf("  processes decided: %d — the run is admissible and non-deciding\n", rep.DecidedCount)
}

// profiles starts CPU profiling (when requested) and returns the function
// that stops it and writes the heap profile — deferred by main, so fatalf
// paths that os.Exit skip the writes by design.
func profiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatalf("-memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("-memprofile: %v", err)
			}
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "flpcheck: "+format+"\n", args...)
	os.Exit(1)
}
