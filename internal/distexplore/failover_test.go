package distexplore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// The failover suite pins the tentpole contract: killing any single worker
// at any level of a replicated (R >= 2) run changes nothing observable —
// counts, visit order, and witness schedules stay byte-identical to both
// the fault-free distributed run and the sequential engine. FaultyTransport
// makes each kill a scripted, replayable event rather than a race, so the
// sweep below is exhaustive over (victim x level), not probabilistic.

// failoverOptions keeps retry latency low so a killed worker is declared
// lost in milliseconds, not the production default seconds.
func failoverOptions() RPCOptions {
	return RPCOptions{
		RPCTimeout:   5 * time.Second,
		DialTimeout:  250 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 2 * time.Millisecond,
	}
}

// killCluster dials a cluster of fresh workers (a killed worker's state is
// unusable for the next run) over a FaultyTransport scripted to kill
// workers[victim] at level, and reports whether the kill has fired.
func killCluster(t *testing.T, workers []string, victim, level int, opt RPCOptions) (*Cluster, func() bool) {
	t.Helper()
	ft := NewFaultyTransport(NewLoopback(), FaultPlan{KillAddr: workers[victim], KillLevel: level})
	addrs, _ := startWorkers(t, ft, workers)
	return dialCluster(t, ft, addrs, opt), func() bool {
		ft.mu.Lock()
		defer ft.mu.Unlock()
		return ft.killed[workers[victim]]
	}
}

// killRun runs the task on a killCluster and requires the kill to fire.
func killRun(t *testing.T, task Task, workers []string, victim, level int) enginetest.Stream {
	t.Helper()
	cl, fired := killCluster(t, workers, victim, level, failoverOptions())
	got := record(t, cl, task)
	if !fired() {
		t.Fatalf("fault plan never fired: worker %d was not killed at level %d", victim, level)
	}
	return got
}

// TestFailoverKillEachWorkerEachLevel is the acceptance sweep: W=3 workers,
// 6 shards, R=2, and every (victim, kill level) pair on the census kernel,
// then every victim at level 3 of paxos(3) at a budget that cuts it. Each
// run must end byte-identical to the sequential oracle despite losing a
// different worker at a different depth.
func TestFailoverKillEachWorkerEachLevel(t *testing.T) {
	workers := []string{"k0", "k1", "k2"}
	for _, tc := range []struct {
		prefix string
		task   Task
		levels []int
	}{
		{"", Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
			Options: explore.Options{MaxConfigs: 300}, Shards: 6, Replicas: 2}, []int{0, 1, 2, 3, 4}},
		{"paxos-", Task{Protocol: "paxos", N: 3, Inputs: model.Inputs{0, 1, 1},
			Options: explore.Options{MaxConfigs: 1500}, Shards: 6, Replicas: 2}, []int{3}},
	} {
		ref := reference(t, tc.task)
		for victim := range workers {
			for _, level := range tc.levels {
				label := fmt.Sprintf("%skill-w%d-at-level%d", tc.prefix, victim, level)
				t.Run(label, func(t *testing.T) {
					mustAgree(t, label, ref, killRun(t, tc.task, workers, victim, level))
				})
			}
		}
	}
}

// TestFailoverGeneratedProtocols repeats the kill sweep over generated
// protocols, which reach the cluster only through the gen: name
// passthrough: each worker must rebuild the protocol from the task name
// alone, then survive the scripted loss byte-identically. Seed 2 is a
// complete exploration (125 configurations, 9 levels deep), seed 15 a
// truncated one (the 300-configuration budget cuts the BFS mid-level), so
// the sweep pins failover parity on both sides of the truncation
// boundary. Seeds with shallower state spaces would leave high kill
// levels unfired, which killRun treats as a test bug.
func TestFailoverGeneratedProtocols(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		levels []int
	}{
		{2, []int{0, 1, 2, 3, 4}},
		{15, []int{1, 4}},
	} {
		sp := protogen.Derive(tc.seed, protogen.DefaultDials(3))
		task := Task{Protocol: sp.Name(), N: sp.N, Inputs: model.Inputs{0, 1, 1},
			Options: explore.Options{MaxConfigs: 300}, Shards: 6, Replicas: 2}
		ref := reference(t, task)
		workers := []string{"g0", "g1", "g2"}
		for victim := range workers {
			for _, level := range tc.levels {
				label := fmt.Sprintf("seed%d-kill-w%d-at-level%d", tc.seed, victim, level)
				t.Run(label, func(t *testing.T) {
					mustAgree(t, label, ref, killRun(t, task, workers, victim, level))
				})
			}
		}
	}
}

// TestFailoverTCP repeats a representative kill over real TCP: the dial
// timeout, socket teardown, and re-dial paths of the production transport,
// not just loopback pipes.
func TestFailoverTCP(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 300}, Shards: 4, Replicas: 2}
	ref := reference(t, task)
	for _, level := range []int{1, 3} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			ft := NewFaultyTransport(TCP{}, FaultPlan{KillLevel: level})
			addrs, _ := startWorkers(t, ft, []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
			// TCP addresses are assigned at Listen time, so the kill target
			// is named after the workers are up.
			ft.plan.KillAddr = addrs[1]
			cl := dialCluster(t, ft, addrs, failoverOptions())
			mustAgree(t, fmt.Sprintf("tcp-kill-level%d", level), ref, record(t, cl, task))
		})
	}
}

// TestReplicasOneKillAborts pins the R=1 contract from the failure model:
// without a standby the loss is unrecoverable and the run must abort with
// the lost-worker diagnostic, not hang and not return partial results.
func TestReplicasOneKillAborts(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 300}, Shards: 4, Replicas: 1}
	workers := []string{"s0", "s1", "s2"}
	ft := NewFaultyTransport(NewLoopback(), FaultPlan{KillAddr: workers[1], KillLevel: 2})
	addrs, _ := startWorkers(t, ft, workers)
	cl := dialCluster(t, ft, addrs, failoverOptions())
	_, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool { return false })
	if err == nil {
		t.Fatal("R=1 exploration succeeded despite a killed worker")
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("error does not identify the lost worker: %v", err)
	}
}

// TestChaosConnDrops injects seeded random connection drops (workers stay
// alive, so every re-dial succeeds): retries plus idempotent workers must
// absorb all of it byte-identically.
func TestChaosConnDrops(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 300}, Shards: 4, Replicas: 2}
	ref := reference(t, task)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ft := NewFaultyTransport(NewLoopback(), FaultPlan{Seed: seed, DropProb: 0.08})
			addrs, _ := startWorkers(t, ft, []string{"d0", "d1", "d2"})
			opt := failoverOptions()
			opt.Retries = 8
			cl := dialCluster(t, ft, addrs, opt)
			mustAgree(t, fmt.Sprintf("drops-seed%d", seed), ref, record(t, cl, task))
		})
	}
}

// TestChaosNeverWrong is the safety property under mixed faults: drops,
// truncations, and deadline-busting delays at once. A run may abort loudly
// (if retries are exhausted), but a run that reports success must be
// byte-identical to the oracle — wrong answers are never acceptable.
func TestChaosNeverWrong(t *testing.T) {
	t.Parallel() // its delays leave the CPU to TestClusterSuite
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 200}, Shards: 4, Replicas: 2}
	ref := reference(t, task)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ft := NewFaultyTransport(NewLoopback(), FaultPlan{
				Seed:         seed,
				DropProb:     0.04,
				TruncateProb: 0.02,
				DelayProb:    0.02,
				Delay:        400 * time.Millisecond,
			})
			addrs, _ := startWorkers(t, ft, []string{"x0", "x1", "x2"})
			opt := failoverOptions()
			opt.RPCTimeout = 200 * time.Millisecond
			opt.Retries = 6
			cl := dialCluster(t, ft, addrs, opt)
			got, err := enginetest.Record(0, func(visit explore.Visit) (bool, int, error) { return cl.Explore(task, visit) })
			if err != nil {
				t.Logf("seed %d aborted loudly (acceptable): %v", seed, err)
				return
			}
			mustAgree(t, fmt.Sprintf("chaos-seed%d", seed), ref, got)
		})
	}
}

// TestBackoffDelay pins the retry backoff's shape: full jitter within a
// capped exponential ceiling, deterministic per seed, and actually jittered
// (not a constant).
func TestBackoffDelay(t *testing.T) {
	base := 50 * time.Millisecond
	max := 300 * time.Millisecond
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for attempt := 1; attempt <= 20; attempt++ {
		d := backoffDelay(base, max, attempt, rng)
		if d < 0 {
			t.Fatalf("attempt %d: negative delay %v", attempt, d)
		}
		ceiling := base << (attempt - 1)
		if attempt > 10 || ceiling > max || ceiling < 0 {
			ceiling = max
		}
		if d > ceiling {
			t.Fatalf("attempt %d: delay %v above ceiling %v", attempt, d, ceiling)
		}
		seen[d] = true
	}
	if len(seen) < 5 {
		t.Fatalf("expected jittered delays, got only %d distinct values", len(seen))
	}
	// Determinism: the same seed replays the same schedule.
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 10; attempt++ {
		if da, db := backoffDelay(base, max, attempt, a), backoffDelay(base, max, attempt, b); da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, da, db)
		}
	}
}

// TestShardReplicaAssignment pins the deterministic replica chains the
// failover contract depends on: shard s lives on workers (s+r) mod W, the
// chain never repeats a worker, and every worker can compute its own
// replica set locally from (shard, W, R) alone. R is a Task.Replicas value,
// resolved by ReplicaCount as the coordinator resolves it.
func TestShardReplicaAssignment(t *testing.T) {
	for _, tc := range []struct {
		shard, workers, replicas int
		want                     []int
	}{
		{0, 3, 2, []int{0, 1}},
		{2, 3, 2, []int{2, 0}},
		{5, 3, 2, []int{2, 0}},
		{1, 4, 3, []int{1, 2, 3}},
		{3, 2, 5, []int{1, 0}}, // R clamped to W
		{0, 1, 1, []int{0}},
		{4, 3, 0, []int{1, 2}}, // 0 means DefaultReplicas
		{4, 3, -1, []int{1}},   // R clamped up to 1
		{0, 1, 0, []int{0}},    // DefaultReplicas clamped to W
	} {
		r := ReplicaCount(tc.replicas, tc.workers)
		got := shardReplicas(tc.shard, tc.workers, r)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("shardReplicas(%d, %d, ReplicaCount(%d)) = %v, want %v",
				tc.shard, tc.workers, tc.replicas, got, tc.want)
		}
		for _, w := range got {
			if !workerReplicatesShard(w, tc.shard, tc.workers, r) {
				t.Errorf("workerReplicatesShard(%d, %d, %d, %d) = false, but %d is in chain %v",
					w, tc.shard, tc.workers, r, w, got)
			}
		}
	}
}

// TestInterruptAtLevelBoundary pins the coordinator half of graceful
// shutdown: Interrupt stops the run at the next level boundary with
// ErrInterrupted rather than mid-phase, so partial results are still a
// complete BFS prefix.
func TestInterruptAtLevelBoundary(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"i0", "i1"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}}
	visits := 0
	_, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool {
		visits++
		if visits == 10 {
			cl.Interrupt()
		}
		return false
	})
	if err != ErrInterrupted {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if visits < 10 {
		t.Fatalf("interrupted before the in-flight level finished: %d visits", visits)
	}
	// The cluster is reusable after an interrupt.
	if _, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool { return false }); err != nil {
		t.Fatalf("re-run after interrupt failed: %v", err)
	}
}

// TestWorkerDrain pins graceful shutdown: a draining worker finishes the
// in-flight request, closes its connections, and Wait returns.
func TestWorkerDrain(t *testing.T) {
	lb := NewLoopback()
	inner, err := lb.Listen("drain0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil)
	go w.Serve(inner)
	cl := dialCluster(t, lb, []string{"drain0"}, RPCOptions{})
	task := Task{Protocol: "waitall", N: 3, Inputs: model.Inputs{0, 1, 1}}
	if _, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if w.RequestsServed() == 0 {
		t.Fatal("worker served no requests")
	}
	w.Drain()
	inner.Close()
	done := make(chan struct{})
	go func() { w.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
}
