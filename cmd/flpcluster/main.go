// Command flpcluster runs the distributed exploration engine of package
// distexplore: worker processes each own a hash range of the visited set,
// and a coordinator drives the level-synchronous breadth-first loop across
// them, producing byte-identical results to the in-process engines.
//
// Usage:
//
//	flpcluster worker -listen 127.0.0.1:9001
//	    serve one visited-set partition; SIGINT/SIGTERM drains in-flight
//	    requests and exits 0 with a summary
//
//	flpcluster explore -cluster 127.0.0.1:9001,127.0.0.1:9002 \
//	    -protocol naivemajority -n 3 -inputs 011 -shards 8 -replicas 2
//	    run a distributed reachability census against live workers;
//	    -chaos injects a deterministic fault plan
//
//	flpcluster explore -cluster loopback:3 -shards 6 -protocol 2pc
//	    the same census on 3 workers started in this process over
//	    in-memory pipes, each count checked against the local engine's
//	    (explore.CountReachable): a mismatch exits 1 (`make test-dist`)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "worker":
		runWorker(os.Args[2:])
	case "explore":
		runExplore(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatalf("unknown subcommand %q (want worker or explore)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flpcluster <worker|explore> [flags]")
	fmt.Fprintln(os.Stderr, "  flpcluster worker   -listen 127.0.0.1:9001")
	fmt.Fprintln(os.Stderr, "  flpcluster explore  -cluster host:port,host:port|loopback:W -protocol naivemajority -n 3 [-inputs 011|all] [-shards S] [-replicas R] [-chaos spec] [-checkpoint-dir D [-resume]] [-kill-at-level L]")
	fmt.Fprintln(os.Stderr, "  chaos spec: comma-separated keys seed=N drop=P delay=P delayfor=DUR trunc=P kill=WORKER@LEVEL")
	os.Exit(2)
}

func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to serve on")
	fs.Parse(args)
	l, err := distexplore.TCP{}.Listen(*listen)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("flpcluster worker: serving on %s\n", l.Addr())

	w := distexplore.NewWorker(nil)
	// SIGINT/SIGTERM begins a graceful drain: the listener stops accepting,
	// in-flight requests are answered, and the process exits 0. A
	// replicated coordinator fails the shards over to their standbys; an
	// unreplicated one aborts with the lost-worker diagnostic.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("flpcluster worker: %v received, draining\n", s)
		w.Drain()
		l.Close()
	}()
	start := time.Now()
	err = w.Serve(l)
	w.Wait()
	fmt.Printf("flpcluster worker: drained after %s; %d requests served\n",
		time.Since(start).Round(time.Millisecond), w.RequestsServed())
	if err != nil && !isClosedErr(err) {
		fatalf("%v", err)
	}
}

// isClosedErr reports whether err is the listener's routine "closed" error
// from a drain-triggered shutdown, which is a clean exit, not a failure.
func isClosedErr(err error) bool {
	return strings.Contains(err.Error(), "closed")
}

func runExplore(args []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		cluster     = fs.String("cluster", "", "comma-separated worker addresses, or loopback:W for W in-process workers checked against the local engine (required)")
		name        = fs.String("protocol", "naivemajority", "protocol to explore")
		n           = fs.Int("n", 3, "number of processes")
		inputs      = fs.String("inputs", "all", "input vector like 011 (commas allowed: 0,1,1) — or 'all' for a census over every vector")
		shards      = fs.Int("shards", 0, "visited-set shards (0 = one per worker)")
		replicas    = fs.Int("replicas", 0, "replicas per shard (0 = default 2; 1 disables failover)")
		budget      = fs.Int("budget", 0, "max configurations per exploration (0 = default)")
		depth       = fs.Int("depth", 0, "max schedule depth (0 = unlimited)")
		chaos       = fs.String("chaos", "", "deterministic fault plan, e.g. seed=1,drop=0.02,kill=1@3")
		ckDir       = fs.String("checkpoint-dir", "", "directory for durable level-boundary checkpoints ('' = checkpointing off)")
		resume      = fs.Bool("resume", false, "restart from the newest matching checkpoint in -checkpoint-dir instead of from scratch")
		killAtLevel = fs.Int("kill-at-level", 0, "SIGKILL this coordinator right after writing the level-N boundary checkpoint (crash injection for recovery drills)")
	)
	fs.Parse(args)
	if *cluster == "" {
		fatalf("explore: -cluster is required")
	}
	if *resume && *ckDir == "" {
		fatalf("explore: -resume requires -checkpoint-dir")
	}
	ins, err := inputVectors(*inputs, *n)
	if err != nil {
		fatalf("%v", err)
	}
	tr, addrs, loopback, err := clusterEndpoints(*cluster)
	if err != nil {
		fatalf("%v", err)
	}
	var local func(model.Inputs) (int, bool)
	if loopback {
		if local, err = localCount(*name, *n, explore.Options{MaxConfigs: *budget, MaxDepth: *depth}); err != nil {
			fatalf("%v", err)
		}
	}
	if *chaos != "" {
		plan, err := parseChaos(*chaos, addrs)
		if err != nil {
			fatalf("%v", err)
		}
		tr = distexplore.NewFaultyTransport(tr, plan)
	}
	var cks *atlasstore.CheckpointStore
	if *ckDir != "" {
		if cks, err = atlasstore.OpenCheckpoints(*ckDir); err != nil {
			fatalf("%v", err)
		}
		cks.SetLog(func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "flpcluster: "+format+"\n", args...)
		})
	}
	cl, err := distexplore.Dial(tr, addrs, distexplore.RPCOptions{})
	if err != nil {
		fatalf("%v", err)
	}
	defer cl.Close()

	// SIGINT/SIGTERM interrupts the census at the next level boundary: the
	// in-flight level completes, results so far are reported, exit 0.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("flpcluster explore: %v received, stopping at the next level boundary\n", s)
		cl.Interrupt()
	}()

	fmt.Printf("distributed reachability census: %s n=%d, %d workers, shards=%d, replicas=%d\n",
		*name, *n, len(addrs), *shards, distexplore.ReplicaCount(*replicas, len(addrs)))
	done := 0
	for _, in := range ins {
		task := distexplore.Task{
			Protocol: *name, N: *n, Inputs: in, Shards: *shards, Replicas: *replicas,
			Options:     explore.Options{MaxConfigs: *budget, MaxDepth: *depth},
			Checkpoints: cks, Resume: *resume,
		}
		if *killAtLevel > 0 {
			task.CheckpointHook = func(level int) error {
				if level >= *killAtLevel {
					fmt.Printf("flpcluster explore: kill-at-level %d reached, SIGKILLing self\n", level)
					os.Stdout.Sync()
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				return nil
			}
		}
		count, exact, err := cl.CountReachable(task)
		if err == distexplore.ErrInterrupted {
			fmt.Printf("interrupted: %d of %d input vectors completed, inputs %s partial (%d configurations seen)\n",
				done, len(ins), in, count)
			return
		}
		if err != nil {
			fatalf("%v", err)
		}
		suffix := ""
		if !exact {
			suffix = " (budget-limited)"
		}
		if local != nil {
			if want, wantExact := local(in); count != want || exact != wantExact {
				fatalf("distributed census MISMATCH on inputs %s: cluster found %d configurations (exact=%v), local engine %d (exact=%v)",
					in, count, exact, want, wantExact)
			}
			suffix += " — matches the local engine"
		}
		fmt.Printf("  inputs %s: %d configurations%s\n", in, count, suffix)
		if cks != nil {
			st := cl.RunStats()
			if st.ResumedLevel >= 0 {
				fmt.Printf("    recovery: resumed at level %d (%d nodes restored); %d of %d expansions done live\n",
					st.ResumedLevel, st.ResumedNodes, st.LiveExpanded, st.ExpandedNodes)
			}
			fmt.Printf("    checkpoints: %d boundary checkpoints written\n", st.Checkpoints)
		}
		done++
	}
}

// parseChaos parses a -chaos fault-plan spec: comma-separated key=value
// pairs. kill=W@L names a worker by its index in the -cluster list and the
// level at which its next frame is discarded.
func parseChaos(spec string, addrs []string) (distexplore.FaultPlan, error) {
	var plan distexplore.FaultPlan
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return plan, fmt.Errorf("chaos spec %q: %q is not key=value", spec, kv)
		}
		var err error
		switch key {
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			plan.DropProb, err = parseProb(val)
		case "delay":
			plan.DelayProb, err = parseProb(val)
		case "delayfor":
			if plan.Delay, err = time.ParseDuration(val); err == nil && plan.Delay < 0 {
				err = fmt.Errorf("%v is negative", plan.Delay)
			}
		case "trunc":
			plan.TruncateProb, err = parseProb(val)
		case "kill":
			widx, lvl, ok := strings.Cut(val, "@")
			if !ok {
				return plan, fmt.Errorf("chaos spec: kill wants WORKER@LEVEL, got %q", val)
			}
			w, werr := strconv.Atoi(widx)
			if werr != nil || w < 0 || w >= len(addrs) {
				return plan, fmt.Errorf("chaos spec: kill worker index %q out of range [0, %d)", widx, len(addrs))
			}
			plan.KillAddr = addrs[w]
			if plan.KillLevel, err = strconv.Atoi(lvl); err == nil && plan.KillLevel < 0 {
				err = fmt.Errorf("level %d is negative", plan.KillLevel)
			}
		default:
			return plan, fmt.Errorf("chaos spec: unknown key %q", key)
		}
		if err != nil {
			return plan, fmt.Errorf("chaos spec: bad value for %s: %v", key, err)
		}
	}
	return plan, nil
}

// parseProb parses a per-frame probability, which must lie in [0, 1].
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err == nil && !(p >= 0 && p <= 1) {
		err = fmt.Errorf("%v is not a probability in [0, 1]", p)
	}
	return p, err
}

// inputVectors resolves -inputs: "all" is every input vector of n
// processes; otherwise one vector in model.ParseInputs's form (011), with
// commas allowed between the bits (0,1,1).
func inputVectors(spec string, n int) ([]model.Inputs, error) {
	if spec == "all" {
		if err := model.CheckInputsN(n); err != nil {
			return nil, err
		}
		return model.AllInputs(n), nil
	}
	in, err := model.ParseInputs(strings.ReplaceAll(spec, ",", ""), n)
	if err != nil {
		return nil, err
	}
	return []model.Inputs{in}, nil
}

// clusterEndpoints resolves -cluster: "loopback:W" boots W workers inside
// this process over in-memory pipes, serving until it exits (loopback
// reports it); anything else is a comma-separated list of TCP worker
// addresses.
func clusterEndpoints(spec string) (tr distexplore.Transport, addrs []string, loopback bool, err error) {
	w, ok := strings.CutPrefix(spec, "loopback:")
	if !ok {
		return distexplore.TCP{}, strings.Split(spec, ","), false, nil
	}
	workers, err := strconv.Atoi(w)
	if err != nil || workers < 1 {
		return nil, nil, false, fmt.Errorf("bad -cluster spec %q: want loopback:<workers>", spec)
	}
	lb := distexplore.NewLoopback()
	for i := 0; i < workers; i++ {
		l, err := lb.Listen(fmt.Sprintf("loopback-w%d", i))
		if err != nil {
			return nil, nil, false, err
		}
		go distexplore.NewWorker(nil).Serve(l)
		addrs = append(addrs, l.Addr())
	}
	return lb, addrs, true, nil
}

// localCount returns the in-process engine's reachability count from each
// input vector of the named protocol, the figure a loopback cluster's
// counts are checked against.
func localCount(name string, n int, opt explore.Options) (func(model.Inputs) (int, bool), error) {
	pr, err := protocols.Resolve(name, n)
	if err != nil {
		return nil, err
	}
	return func(in model.Inputs) (int, bool) {
		return explore.CountReachable(pr, model.MustInitial(pr, in), opt)
	}, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "flpcluster: "+format+"\n", args...)
	os.Exit(1)
}
