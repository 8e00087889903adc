// Command bench is the repository's one benchmark: four long workloads
// driven through the exported functions of model, explore, adversary,
// distexplore, atlasstore and serve, five end-to-end metrics per workload,
// and per-layer numbers from a separate traced run. See README.md.
//
//	go run ./bench -workload explore-wide -seed 1            # end-to-end metrics
//	go run ./bench -workload serve-mixed -seed 1 -trace 1    # per-layer metrics + span file
//	go run ./bench -selfcheck                                # is the benchmark steady on this box?
//	go run ./bench -mint                                     # regenerate golden.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// processStart approximates process start: the first set-up sequence is
// timed from here, so runtime and package initialisation count as set-up.
var processStart = time.Now()

//go:embed golden.json
var goldenJSON []byte

const (
	setupRounds    = 3
	defaultSeconds = 24
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     string // "0": off; "1": on, spans to the default file; anything else: on, spans to that file
	stateDir  string
	smoke     bool
	mint      bool
	force     bool
	selfcheck bool
	runs      int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: explore-wide, lemma-pipeline, cluster-recover or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "orders the ops of the workload's fixed pool and deals fault roles")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed window")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end run; 1: traced run printing per-layer metrics; any other value: traced run writing spans to that file")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for atlas dirs, journals and checkpoints (default: a fresh one on /dev/shm, else under .bench_state in the working directory)")
	fs.BoolVar(&o.smoke, "smoke", false, "one pass over tiny budgets (what the tests run)")
	fs.BoolVar(&o.mint, "mint", false, "recompute every op's answer digest with the sequential engine and write bench/golden.json")
	fs.BoolVar(&o.force, "force", false, "with -mint: overwrite digests that changed")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload (or -workload) as two interleaved sets of -runs runs and compare them under the benchmark's own bounds")
	fs.IntVar(&o.runs, "runs", 5, "with -selfcheck: runs per set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var err error
	switch {
	case o.mint:
		err = mint(o, stdout)
	case o.selfcheck:
		err = selfcheck(o, stdout, stderr)
	default:
		err = benchmark(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// loadGolden decodes the embedded golden.json.
func loadGolden() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps +Inf (a percentile that landed on a failed op) to the largest
// float, which JSON can carry; the run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// benchmark runs one workload, end to end or traced, and prints its result.
func benchmark(o options, stdout io.Writer) error {
	info, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	stateDir, cleanup, err := makeStateDir(o.stateDir)
	if err != nil {
		return err
	}
	defer cleanup()
	removeOnSignal(cleanup)
	cfg := config{seed: o.seed, smoke: o.smoke, golden: golden}
	env := stampEnv(info.name, o.seed, stateDir)
	fmt.Fprintln(stdout, env)

	var res result
	if o.trace == "0" {
		e, passes, err := endToEndRun(info, cfg, stateDir, o.seconds)
		if err != nil {
			return err
		}
		printEndToEnd(stdout, e, passes)
		res = e.result()
	} else {
		spanFile := o.trace
		if spanFile == "1" {
			spanFile = filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", info.name, o.seed))
		}
		if res, err = tracedRun(info, cfg, env, stateDir, o.seconds, spanFile, stdout); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// makeStateDir creates the directory that holds every atlas dir, journal
// and checkpoint of the run, and returns the function that removes it. With
// no -state-dir the run's state goes to a fresh directory on /dev/shm when
// that exists and is writable, else under .bench_state in the working
// directory: every served request fsyncs its journal twice, and on this
// box's shared disk that fsync — not the program — set the cached-answer
// latency (0.76–1.28 ms across identical runs, against 0.12–0.17 ms on
// tmpfs) and stalled whole passes. The environment stamp records which
// filesystem a run used; disk cost is reported as exact counts instead.
func makeStateDir(flagDir string) (string, func(), error) {
	parents := []string{flagDir}
	if flagDir == "" {
		parents = []string{"/dev/shm", ".bench_state"}
	}
	var err error
	for _, parent := range parents {
		if parent != "/dev/shm" {
			if err = os.MkdirAll(parent, 0o755); err != nil {
				continue
			}
		}
		var dir string
		if dir, err = os.MkdirTemp(parent, "flpbench-run-"); err == nil {
			return dir, func() { os.RemoveAll(dir) }, nil
		}
	}
	return "", nil, err
}

// removeOnSignal removes the state directory if the run is interrupted, so
// an aborted run leaves nothing behind on /dev/shm.
func removeOnSignal(cleanup func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanup()
		os.Exit(130)
	}()
}

// endToEndRun is the untraced run: three rounds, each one set-up sequence
// from scratch followed by a third of the timed window's passes over the
// fixed schedule, the reference kernel timed after every pass. Spreading the set-ups through the run, instead of doing
// all three in its first seconds, lets their median survive a disturbance
// that is shorter than the run.
func endToEndRun(info workloadInfo, cfg config, stateDir string, seconds float64) (endToEnd, []passResult, error) {
	rounds := setupRounds
	if cfg.smoke {
		rounds = 1
	}
	window := time.Duration(seconds * float64(time.Second))
	var (
		setups       []float64
		passes       []passResult
		refs         []float64     // the reference kernel's time after each pass, ms
		timed        time.Duration // wall time spent inside timed passes so far
		allocBytes   uint64
		verifyFailed int
	)
	from := processStart
	for round := 0; round < rounds; round++ {
		w, err := setUp(info, cfg, stateDir, round, &verifyFailed)
		if err != nil {
			return endToEnd{}, nil, err
		}
		setups = append(setups, time.Since(from).Seconds())

		share := window * time.Duration(round+1) / time.Duration(rounds)
		for first := true; first || (timed < share && !cfg.smoke); first = false {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p := w.pass(nil)
			runtime.ReadMemStats(&after)
			allocBytes += after.TotalAlloc - before.TotalAlloc
			timed += p.wall
			passes = append(passes, p)
			ref, err := referenceRun()
			if err != nil {
				w.shutdown()
				return endToEnd{}, nil, fmt.Errorf("reference kernel: %w", err)
			}
			refs = append(refs, ref)
		}
		w.shutdown()
		from = time.Now()
	}
	e := summarize(setups, passes, allocBytes)
	e.setupFailed = verifyFailed
	e.refMS = steadyOf(refs)
	return e, passes, nil
}

// setUp is one set-up sequence: build the workload (protocols, schedule),
// boot it on an empty directory, and run one untimed pass that verifies
// every answer, adding the ops that failed it to *failed. It returns the
// booted workload.
func setUp(info workloadInfo, cfg config, stateDir string, round int, failed *int) (workload, error) {
	w, err := info.make(cfg)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(stateDir, fmt.Sprintf("setup-%d", round))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.boot(dir); err != nil {
		w.shutdown()
		return nil, fmt.Errorf("%s: boot: %w", info.name, err)
	}
	*failed += w.pass(nil).failures()
	return w, nil
}

// result reports the run at the reference machine speed.
func (e endToEnd) result() result {
	r := e.atReferenceSpeed()
	return result{
		Correct:   e.failed == 0 && e.setupFailed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics: map[string]metric{
			"setup_s":         {finite(r.setupS), "s"},
			"ops_per_s":       {finite(r.opsPerS), "ops/s"},
			"op_p50_ms":       {finite(r.p50ms), "ms"},
			"op_p95_ms":       {finite(r.p95ms), "ms"},
			"alloc_mb_per_op": {finite(r.allocMBPerOp), "MB/op"},
		},
	}
}

func printEndToEnd(out io.Writer, e endToEnd, passes []passResult) {
	r := e.atReferenceSpeed()
	fmt.Fprintf(out, "window: %d timed passes x %d ops\n", e.passes, e.opsInPass)
	fmt.Fprintf(out, "machine: reference kernel %.4f ms (lower quartile of %d), nominal %.1f ms: timings below are divided by %.4f; as timed they read setup_s %.4f, ops_per_s %.4f, op_p50_ms %.4f, op_p95_ms %.4f\n",
		e.refMS, e.passes, referenceNominalMS, e.slowdown(), e.setupS, e.opsPerS, e.p50ms, e.p95ms)
	fmt.Fprintf(out, "%-18s %12.4f %-6s (median of the set-up sequences, %d unless -smoke)\n", "setup_s", r.setupS, "s", setupRounds)
	fmt.Fprintf(out, "%-18s %12.4f %-6s (ops in a pass / lower-quartile pass wall, %d passes)\n", "ops_per_s", r.opsPerS, "ops/s", e.passes)
	fmt.Fprintf(out, "%-18s %12.4f %-6s (median over the %d ops of a pass, each at the lower quartile of its %d repeats)\n", "op_p50_ms", r.p50ms, "ms", e.opsInPass, e.passes)
	fmt.Fprintf(out, "%-18s %12.4f %-6s (95th percentile over the same %d ops, %d samples in all, %d beyond)\n", "op_p95_ms", r.p95ms, "ms", e.opsInPass, e.attempted, e.attempted/20)
	fmt.Fprintf(out, "%-18s %12.4f %-6s\n", "alloc_mb_per_op", e.allocMBPerOp, "MB/op")
	fmt.Fprintf(out, "%-18s %12d\n%-18s %12d\n", "ops_attempted", e.attempted, "ops_failed", e.failed)
	fmt.Fprintln(out, "  as timed:")
	for i, p := range passes {
		lat := p.latencies()
		fmt.Fprintf(out, "  pass %2d: wall %8.4f s  p50 %10.4f ms  p95 %10.4f ms\n", i+1, p.wall.Seconds(), quantile(lat, 0.50), quantile(lat, 0.95))
	}
	med, n := classMedians(passes)
	for _, c := range sortedKeys(med) {
		fmt.Fprintf(out, "  class %-10s median %10.4f ms over %d samples\n", c, med[c], n[c])
	}
	ops := steadyOps(passes)
	d := detail{
		Passes: e.passes, OpsInPass: e.opsInPass,
		RankP50: finite(rankRatio(ops, 0.50)), RankP95: finite(rankRatio(ops, 0.95)),
	}
	p50Class, p50Share := classAt(ops, 0.47, 0.53)
	d.P95Class, d.P95Share = classAt(ops, 0.92, 0.98)
	fmt.Fprintf(out, "  rank ratio (p+3)/(p-3): p50 %.3f, p95 %.3f; ranks 47-53%%: %.0f%% %s, ranks 92-98%%: %.0f%% %s\n",
		d.RankP50, d.RankP95, 100*p50Share, p50Class, 100*d.P95Share, d.P95Class)
	if line, err := json.Marshal(d); err == nil {
		fmt.Fprintf(out, "%s%s\n", detailPrefix, line)
	}
}
