// Command flpcheck runs the FLP model checker against a named protocol:
// the Lemma 2 initial-valency census, Lemma 3 frontier checks, the partial
// correctness (agreement/nontriviality) audit, and the Theorem 1 adversary.
//
// Usage:
//
//	flpcheck -protocol naivemajority -n 3            # full checker battery
//	flpcheck -protocol paxos -n 3 -adversary 12      # livelock Paxos for 12 stages
//	flpcheck -cluster loopback:3                     # cross-check the distributed engine
//	flpcheck -list                                   # available protocols
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/flpsim/flp"
	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/conformance"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

func main() {
	var (
		name       = flag.String("protocol", "naivemajority", "protocol to check (see -list)")
		n          = flag.Int("n", 3, "number of processes")
		budget     = flag.Int("budget", 200000, "max configurations per exploration")
		stages     = flag.Int("adversary", 0, "also run the Theorem 1 adversary for this many stages")
		workers    = flag.Int("workers", 0, "exploration workers (0 = GOMAXPROCS, 1 = sequential)")
		skipL3     = flag.Bool("skip-lemma3", false, "skip the Lemma 3 frontier census")
		skipAgree  = flag.Bool("skip-agreement", false, "skip the partial-correctness audit")
		cluster    = flag.String("cluster", "", "also run a distributed reachability census: 'loopback:W' spins up W in-process workers; otherwise comma-separated flpcluster worker addresses")
		shards     = flag.Int("cluster-shards", 0, "visited-set shards for -cluster (0 = one per worker)")
		creplicas  = flag.Int("cluster-replicas", 0, "replicas per shard for -cluster (0 = default 2; 1 disables failover)")
		ckDir      = flag.String("checkpoint-dir", "", "durable level-boundary checkpoints for the -cluster census ('' = off)")
		ckResume   = flag.Bool("resume", false, "resume the -cluster census from the newest matching checkpoint in -checkpoint-dir")
		genseed    = flag.Uint64("genseed", 0, "check the generated protocol Derive(seed, DefaultDials(n)) instead of -protocol (0 = off)")
		genspec    = flag.String("genspec", "", "check a generated protocol by its full gen: name (replays fuzzer reproducers; overrides -protocol and -n)")
		conf       = flag.Bool("conformance", false, "run the cross-engine conformance harness on the selected protocol and exit")
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
	// Generated-protocol selection: both forms produce a self-describing
	// gen: name, which the ordinary registry lookup below resolves.
	switch {
	case *genspec != "" && *genseed != 0:
		fatalf("-genseed and -genspec are mutually exclusive")
	case *genspec != "":
		sp, err := protogen.FromName(*genspec)
		if err != nil {
			fatalf("%v", err)
		}
		*name = sp.Name()
		*n = sp.N
	case *genseed != 0:
		sp := protogen.Derive(*genseed, protogen.DefaultDials(*n))
		*name = sp.Name()
		*n = sp.N
	}
	factory, ok := flp.LookupProtocol(*name)
	if !ok {
		fatalf("unknown protocol %q; try -list", *name)
	}
	pr, err := factory(*n)
	if err != nil {
		fatalf("%v", err)
	}
	opt := flp.CheckOptions{MaxConfigs: *budget, Workers: *workers}
	unbounded := protocols.Unbounded(*name)

	fmt.Printf("protocol: %s\n\n", pr.Name())
	if *conf {
		runConformance(*name, pr.N(), *budget)
		return
	}
	var (
		atlases *explore.AtlasCache
		store   *atlasstore.Store
	)
	if *atlasDir != "" {
		store, err = atlasstore.Open(*atlasDir)
		if err != nil {
			fatalf("%v", err)
		}
		atlases = explore.NewAtlasCache()
		atlases.SetBackend(store)
	}
	runLemma2(pr, opt, unbounded, atlases)
	if store != nil {
		st := store.Stats()
		fmt.Printf("  atlas store (%s): %d hits, %d misses, %d resumes, %d refused\n\n",
			*atlasDir, st.Hits, st.Misses, st.Resumes, st.Refused)
	}
	if !unbounded {
		fmt.Println("== Lemma 2 proof walk: adjacent univalent pairs ==")
		runLemma2Proof(pr, opt)
	}
	if !*skipL3 {
		runLemma3(pr, opt, unbounded)
	}
	if !*skipAgree {
		runAgreement(pr, opt, unbounded)
	}
	if *stages > 0 {
		runAdversary(pr, *stages, *workers, unbounded)
	}
	if *cluster != "" {
		runClusterCensus(pr, *name, *budget, *cluster, *shards, *creplicas, unbounded, *ckDir, *ckResume)
	}
}

// runConformance sweeps every input assignment through the cross-engine
// conformance harness: sequential, parallel, distributed (fault-free and
// under a scripted worker kill), and the valency atlas must all produce
// byte-identical results.
func runConformance(name string, n, budget int) {
	fmt.Println("== Cross-engine conformance ==")
	if budget > 2000 {
		// The contract holds on truncated explorations exactly as on
		// complete ones, so conformance never needs the checker's full
		// budget; capping keeps the 2^n-input sweep interactive.
		budget = 2000
	}
	for _, in := range flp.AllInputs(n) {
		c := enginetest.Case{Protocol: name, N: n, Inputs: in, Options: explore.Options{MaxConfigs: budget}}
		if err := conformance.Check(c, conformance.Options{Chaos: true, ChaosSeed: 1}); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  inputs %s: all engines agree\n", in)
	}
	fmt.Printf("\n  sequential, parallel, distributed (plain and with a scripted kill), and atlas\n  engines produced byte-identical results at budget %d\n", budget)
}

// runClusterCensus cross-checks the distributed engine against the local
// one: a per-input reachability census over a worker cluster (in-process
// loopback or live TCP workers started with `flpcluster worker`) must
// reproduce the local counts exactly, and a mismatch exits 1.
func runClusterCensus(pr flp.Protocol, name string, budget int, spec string, shards, replicas int, unbounded bool, ckDir string, resume bool) {
	fmt.Println("== Distributed reachability census ==")
	if unbounded {
		budget = 2000 // unbounded state spaces get the same bounded sweep as the other sections
	}
	tr, addrs, cleanup, err := clusterEndpoints(spec)
	if err != nil {
		fatalf("%v", err)
	}
	defer cleanup()
	cl, err := distexplore.Dial(tr, addrs, distexplore.RPCOptions{})
	if err != nil {
		fatalf("%v", err)
	}
	defer cl.Close()
	var cks *atlasstore.CheckpointStore
	if ckDir != "" {
		if cks, err = atlasstore.OpenCheckpoints(ckDir); err != nil {
			fatalf("%v", err)
		}
		cks.SetLog(func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "flpcheck: "+format+"\n", args...)
		})
	}
	fmt.Printf("  cluster: %d workers (%s), shards=%d, replicas=%d\n", len(addrs), strings.Join(addrs, ", "), shards, distexplore.ReplicaCount(replicas, len(addrs)))
	for _, in := range flp.AllInputs(pr.N()) {
		c, err := flp.Initial(pr, in)
		if err != nil {
			fatalf("%v", err)
		}
		localCount, localExact := explore.CountReachable(pr, c, explore.Options{MaxConfigs: budget})
		count, exact, err := cl.CountReachable(distexplore.Task{
			Protocol: name, N: pr.N(), Inputs: in, Shards: shards, Replicas: replicas,
			Options:     explore.Options{MaxConfigs: budget},
			Checkpoints: cks, Resume: resume,
		})
		if err != nil {
			fatalf("%v", err)
		}
		if count != localCount || exact != localExact {
			fatalf("distributed census MISMATCH on inputs %s: cluster found %d configurations (exact=%v), local engine %d (exact=%v)",
				in, count, exact, localCount, localExact)
		}
		status := "matches local engine"
		if st := cl.RunStats(); cks != nil && st.ResumedLevel >= 0 {
			status += fmt.Sprintf(" (resumed at level %d, %d nodes restored)", st.ResumedLevel, st.ResumedNodes)
		}
		fmt.Printf("  inputs %s: %d configurations (exact=%v) — %s\n", in, count, exact, status)
	}
	fmt.Println()
}

// clusterEndpoints resolves a -cluster spec: "loopback:W" boots W workers
// inside this process over in-memory pipes; anything else is a
// comma-separated list of TCP worker addresses.
func clusterEndpoints(spec string) (distexplore.Transport, []string, func(), error) {
	if w, ok := strings.CutPrefix(spec, "loopback:"); ok {
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, nil, nil, fmt.Errorf("bad -cluster spec %q: want loopback:<workers>", spec)
		}
		lb := distexplore.NewLoopback()
		var addrs []string
		var listeners []distexplore.Listener
		for i := 0; i < n; i++ {
			l, err := lb.Listen(fmt.Sprintf("flpcheck-w%d", i))
			if err != nil {
				return nil, nil, nil, err
			}
			listeners = append(listeners, l)
			go distexplore.NewWorker(nil).Serve(l)
			addrs = append(addrs, l.Addr())
		}
		cleanup := func() {
			for _, l := range listeners {
				l.Close()
			}
		}
		return lb, addrs, cleanup, nil
	}
	return distexplore.TCP{}, strings.Split(spec, ","), func() {}, nil
}

func runLemma2(pr flp.Protocol, opt flp.CheckOptions, unbounded bool, atlases *explore.AtlasCache) {
	fmt.Println("== Lemma 2: initial configuration valencies ==")
	for _, in := range flp.AllInputs(pr.N()) {
		c, err := flp.Initial(pr, in)
		if err != nil {
			fatalf("%v", err)
		}
		var info flp.ValencyInfo
		switch {
		case unbounded:
			info = flp.ClassifySmart(pr, c, flp.CheckOptions{MaxConfigs: 2000, Workers: opt.Workers}, flp.ProbeOptions{})
		case atlases != nil:
			// Store-backed path: the atlas is loaded from -atlas-dir when
			// persisted (or built and persisted), with automatic per-config
			// fallback on refusal. Valencies and exactness are identical to
			// flp.Classify; the explored-configuration count reports the
			// full atlas size rather than an early-exit BFS's visit count.
			info = explore.ClassifyRootCached(pr, c, opt, atlases)
		default:
			info = flp.Classify(pr, c, opt)
		}
		exact := ""
		if !info.Exact {
			exact = " (budget-limited)"
		}
		fmt.Printf("  inputs %s: %s%s, %d configurations explored\n", in, info.Valency, exact, info.Visited)
	}
	fmt.Println()
}

func runLemma2Proof(pr flp.Protocol, opt flp.CheckOptions) {
	steps, err := flp.CheckLemma2Proof(pr, opt)
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

func runLemma3(pr flp.Protocol, opt flp.CheckOptions, unbounded bool) {
	fmt.Println("== Lemma 3: bivalence-preserving extensions ==")
	c, in, ok := findBivalent(pr, opt, unbounded)
	if !ok {
		fmt.Println("  no bivalent initial configuration: the protocol escapes the theorem's hypotheses")
		fmt.Println()
		return
	}
	fmt.Printf("  bivalent initial configuration: inputs %s\n", in)
	if unbounded {
		fmt.Println("  (frontier census needs a finite protocol; skipped for unbounded state spaces)")
		fmt.Println()
		return
	}
	cache := flp.NewValencyCache(pr, opt)
	for p := 0; p < pr.N(); p++ {
		e := flp.NullEvent(flp.PID(p))
		res, err := flp.CensusLemma3(pr, c, e, opt, cache)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  e = %s: frontier |ℰ| = %d, bivalent member found = %v (witness |σ| = %d)\n",
			e, res.FrontierSize, res.BivalentFound, len(res.Sigma))
	}
	fmt.Println()
}

func runAgreement(pr flp.Protocol, opt flp.CheckOptions, unbounded bool) {
	fmt.Println("== Partial correctness (Section 2) ==")
	if unbounded {
		opt = flp.CheckOptions{MaxConfigs: 2000, Workers: opt.Workers}
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

func runAdversary(pr flp.Protocol, stages, workers int, unbounded bool) {
	fmt.Printf("== Theorem 1 adversary: %d stages ==\n", stages)
	opt := flp.AdversaryOptions{Stages: stages, Workers: workers}
	if unbounded {
		opt = adversary.ForUnbounded(opt)
	}
	adv := flp.NewAdversary(pr, opt)
	res, err := adv.Run()
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

func findBivalent(pr flp.Protocol, opt flp.CheckOptions, unbounded bool) (*flp.Config, flp.Inputs, bool) {
	if !unbounded {
		return flp.FindBivalentInitial(pr, opt)
	}
	for _, in := range flp.AllInputs(pr.N()) {
		c, err := flp.Initial(pr, in)
		if err != nil {
			return nil, nil, false
		}
		if flp.ClassifySmart(pr, c, flp.CheckOptions{MaxConfigs: 2000, Workers: opt.Workers}, flp.ProbeOptions{}).Valency == flp.Bivalent {
			return c, in, true
		}
	}
	return nil, nil, false
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
