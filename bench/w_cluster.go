package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// clusterKernels: one finite kernel explored to completion and three wide
// ones cut at a budget, every input vector of each a root.
var clusterKernels = []struct {
	name      string
	n, budget int
}{
	{"naivemajority", 3, 0}, {"paxos", 3, 400}, {"onethird", 4, 400}, {"naivemajority", 4, 400},
}

const (
	clusterWorkers  = 3
	clusterShards   = 6
	clusterReplicas = 2
	// faultLevel is the BFS level at which a worker or the coordinator
	// dies: every kernel is deeper than this from every root, and the level
	// is past the first checkpoint boundary, so a resume restores real work.
	faultLevel        = 3
	clusterSmokeLimit = 120
)

// Roles of a cluster op. Of every 8 roots of a kernel, 6 run clean on the
// long-lived cluster, 1 survives a worker kill on a fresh cluster, and 1
// has its coordinator crashed and is finished by a second cluster resuming
// from the checkpoint.
const (
	roleClean  = "clean"
	roleKill   = "kill"
	roleResume = "resume"
)

type clusterOp struct {
	id   string
	role string
	task distexplore.Task
	pr   model.Protocol
}

// clusterOptions are the coordinator's RPC settings: short dial timeout and
// backoff so a dead worker is declared lost in milliseconds, as the failover
// tests configure it.
func clusterOptions() distexplore.RPCOptions {
	return distexplore.RPCOptions{
		RPCTimeout:   5 * time.Second,
		DialTimeout:  250 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 2 * time.Millisecond,
	}
}

// cluster is one loopback cluster: three workers and a dialled coordinator.
type cluster struct {
	cl        *distexplore.Cluster
	listeners []distexplore.Listener
	workers   []*distexplore.Worker
	addrs     []string
	done      chan struct{}
}

// startCluster boots workers on tr and dials them. The in-process Loopback
// transport has zero injected delay, so an op's latency is processor time
// only.
func startCluster(s scope, tr distexplore.Transport) (*cluster, error) {
	c := &cluster{done: make(chan struct{}, clusterWorkers)}
	for i := 0; i < clusterWorkers; i++ {
		l, err := tr.Listen(fmt.Sprintf("w%d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		w := distexplore.NewWorker(nil)
		c.listeners = append(c.listeners, l)
		c.workers = append(c.workers, w)
		c.addrs = append(c.addrs, l.Addr())
		go func() {
			// Serve returns once its listener closes.
			_ = w.Serve(l)
			c.done <- struct{}{}
		}()
	}
	_, end := s.begin("distexplore.Dial")
	cl, err := distexplore.Dial(tr, c.addrs, clusterOptions())
	end()
	if err != nil {
		c.close()
		return nil, err
	}
	c.cl = cl
	return c, nil
}

// close stops the coordinator and every worker and waits for them.
func (c *cluster) close() {
	if c.cl != nil {
		// After an injected crash the connections are already severed and
		// Close reports it; the error carries nothing the op needs.
		_ = c.cl.Close()
	}
	for _, l := range c.listeners {
		l.Close()
	}
	for range c.listeners {
		<-c.done
	}
	for _, w := range c.workers {
		w.Drain()
		w.Wait()
	}
}

type clusterRecover struct {
	verifier
	ops  []clusterOp // in schedule order
	live *cluster    // the long-lived cluster clean ops run on
	cks  *atlasstore.CheckpointStore

	// resumed sums the RunStats of every resume op's second run, and
	// resumes counts them: the expansion counters prove the restored prefix
	// was not re-expanded.
	resumed distexplore.RunStats
	resumes int
}

func newClusterRecover(cfg config) (workload, error) {
	w := &clusterRecover{verifier: verifier{"cluster-recover", cfg.golden}}
	rng := rand.New(rand.NewSource(cfg.seed))
	var pool []clusterOp
	kernels := clusterKernels
	if cfg.smoke {
		// The two narrow kernels: at the smoke budget the four-process ones
		// run out of budget before faultLevel, and no fault would fire.
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		pr, err := lookupProtocol(k.name, k.n)
		if err != nil {
			return nil, err
		}
		budget := k.budget
		if cfg.smoke && (budget == 0 || budget > clusterSmokeLimit) {
			budget = clusterSmokeLimit
		}
		inputs := model.AllInputs(k.n)
		// Roles are dealt per kernel, so every seed runs the same number of
		// each role on each kernel and only which root gets which changes.
		roles := make([]string, len(inputs))
		for i := range roles {
			switch i % 8 {
			case 6:
				roles[i] = roleKill
			case 7:
				roles[i] = roleResume
			default:
				roles[i] = roleClean
			}
		}
		rng.Shuffle(len(roles), func(i, j int) { roles[i], roles[j] = roles[j], roles[i] })
		for i, in := range inputs {
			pool = append(pool, clusterOp{
				id:   fmt.Sprintf("%s%d/%s@%d", k.name, k.n, in, budget),
				role: roles[i],
				pr:   pr,
				task: distexplore.Task{
					Protocol: k.name, N: k.n, Inputs: in,
					Shards: clusterShards, Replicas: clusterReplicas,
					Options: explore.Options{MaxConfigs: budget},
				},
			})
		}
	}
	for _, i := range rng.Perm(len(pool)) {
		w.ops = append(w.ops, pool[i])
	}
	return w, nil
}

func (w *clusterRecover) boot(dir string) error {
	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.Mkdir(ckDir, 0o755); err != nil {
		return err
	}
	cks, err := atlasstore.OpenCheckpoints(ckDir)
	if err != nil {
		return err
	}
	w.cks = cks
	w.live, err = startCluster(scope{}, distexplore.NewLoopback())
	return err
}

func (w *clusterRecover) shutdown() {
	if w.live != nil {
		w.live.close()
		w.live = nil
	}
}

// exploreOn runs one task on a cluster and digests the answer exactly as
// explore-wide digests a local exploration.
func exploreOn(s scope, c *cluster, t distexplore.Task) (string, error) {
	visit, sum := visitSum()
	_, end := s.begin("distexplore.Cluster.Explore")
	complete, visited, err := c.cl.Explore(t, visit)
	end()
	if err != nil {
		return "", err
	}
	return digestOf(complete, visited, sum()), nil
}

// run executes one op in its role.
func (w *clusterRecover) run(s scope, op clusterOp) (string, error) {
	switch op.role {
	case roleKill:
		// A fresh cluster loses worker 1 at faultLevel; its shards fail
		// over to their standbys and the run must finish byte-identically.
		ft := distexplore.NewFaultyTransport(distexplore.NewLoopback(), distexplore.FaultPlan{KillAddr: "w1", KillLevel: faultLevel})
		c, err := startCluster(s, ft)
		if err != nil {
			return "", err
		}
		defer c.close()
		return exploreOn(s, c, op.task)

	case roleResume:
		// The coordinator dies at faultLevel with checkpointing on; a second
		// cluster resumes from the checkpoint. The op is timed from the
		// query to the answer, crash included.
		t := op.task
		t.Checkpoints = w.cks
		ft := distexplore.NewFaultyTransport(distexplore.NewLoopback(), distexplore.FaultPlan{CoordKillLevel: faultLevel})
		crashed, err := startCluster(s, ft)
		if err != nil {
			return "", err
		}
		_, end := s.begin("distexplore.Cluster.Explore(crash)")
		_, _, err = crashed.cl.Explore(t, func(*model.Config, int, func() model.Schedule) bool { return false })
		end()
		crashed.close()
		if err == nil {
			return "", errors.New("coordinator kill did not abort the run")
		}
		t.Resume = true
		c, err := startCluster(s, distexplore.NewLoopback())
		if err != nil {
			return "", err
		}
		defer c.close()
		d, err := exploreOn(s, c, t)
		st := c.cl.RunStats()
		if err == nil && st.ResumedLevel < 0 {
			return "", errors.New("resume found no checkpoint and restarted from scratch")
		}
		w.resumes++
		w.resumed.LiveExpanded += st.LiveExpanded
		w.resumed.ExpandedNodes += st.ExpandedNodes
		w.resumed.Checkpoints += st.Checkpoints
		return d, err

	default:
		return exploreOn(s, w.live, op.task)
	}
}

func (w *clusterRecover) pass(tr *tracer) passResult {
	return w.sequentialPass(tr, len(w.ops), func(i int) (string, string, func(scope) (string, error)) {
		op := w.ops[i]
		return op.id, op.role, func(s scope) (string, error) { return w.run(s, op) }
	})
}

// oracle answers every root with the sequential in-process engine.
func (w *clusterRecover) oracle() (map[string]string, error) {
	out := map[string]string{}
	for _, op := range w.ops {
		root, err := model.Initial(op.pr, op.task.Inputs)
		if err != nil {
			return nil, err
		}
		visit, sum := visitSum()
		opt := op.task.Options
		opt.Workers = 1
		complete, visited := explore.Explore(op.pr, root, opt, nil, visit)
		out[op.id] = digestOf(complete, visited, sum())
	}
	return out, nil
}
