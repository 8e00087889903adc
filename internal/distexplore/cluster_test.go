package distexplore

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// The distributed engine's contract is the in-process contract extended
// across processes: byte-identical visit streams, counts, witness
// schedules, and truncation flags at every (workers × shards) combination,
// over both the in-memory loopback transport and real TCP. The
// differential tests below pin that against the sequential engine as the
// oracle.

// step is one visit observation; comparing full streams position by
// position is stronger than any aggregate report.
type step struct {
	key   string
	depth int
	path  string
}

func seqStream(t *testing.T, tk Task) (complete bool, visited int, steps []step) {
	t.Helper()
	pr, err := RegistryProvider(tk.Protocol, tk.N)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustInitial(pr, tk.Inputs)
	if len(tk.Prefix) > 0 {
		if c, err = model.ApplySchedule(pr, c, tk.Prefix); err != nil {
			t.Fatal(err)
		}
	}
	complete, visited = explore.ReferenceExplore(pr, c, tk.Options, explore.AvoidFilter(tk.Avoid), func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		steps = append(steps, step{key: cfg.Key(), depth: depth, path: path().String()})
		return false
	})
	return complete, visited, steps
}

func distStream(t *testing.T, cl *Cluster, tk Task) (complete bool, visited int, steps []step) {
	t.Helper()
	complete, visited, err := cl.Explore(tk, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		steps = append(steps, step{key: cfg.Key(), depth: depth, path: path().String()})
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	return complete, visited, steps
}

func compareStreams(t *testing.T, label string, seqC bool, seqV int, seq []step, distC bool, distV int, dist []step) {
	t.Helper()
	if seqC != distC || seqV != distV {
		t.Errorf("%s: (complete, visited) diverged: sequential (%v, %d), distributed (%v, %d)",
			label, seqC, seqV, distC, distV)
	}
	if len(seq) != len(dist) {
		t.Fatalf("%s: visit stream length %d, sequential %d", label, len(dist), len(seq))
	}
	for i := range seq {
		if seq[i] != dist[i] {
			t.Fatalf("%s: visit %d diverged:\n sequential:  %+v\n distributed: %+v", label, i, seq[i], dist[i])
		}
	}
}

// trackingListener wraps a Listener and remembers accepted connections so
// tests can sever them mid-run.
type trackingListener struct {
	Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// killConns closes every accepted connection (but leaves the listener up,
// so a re-dial succeeds).
func (l *trackingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// startWorkers launches n workers on the transport and returns their
// addresses plus the tracking listeners.
func startWorkers(t testing.TB, tr Transport, addrs []string) ([]string, []*trackingListener) {
	t.Helper()
	var out []string
	var ls []*trackingListener
	for _, a := range addrs {
		inner, err := tr.Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		l := &trackingListener{Listener: inner}
		t.Cleanup(func() { l.Close() })
		go NewWorker(nil).Serve(l)
		out = append(out, l.Addr())
		ls = append(ls, l)
	}
	return out, ls
}

func dialCluster(t testing.TB, tr Transport, addrs []string, opt RPCOptions) *Cluster {
	t.Helper()
	cl, err := Dial(tr, addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// differentialTasks covers finite protocols exactly and larger ones at a
// budget boundary, plus depth cutoffs — the same observables the
// in-process determinism suite pins.
func differentialTasks() []struct {
	name string
	task Task
} {
	in3 := model.Inputs{0, 1, 1}
	return []struct {
		name string
		task Task
	}{
		{"waitall", Task{Protocol: "waitall", N: 3, Inputs: in3}},
		{"naivemajority", Task{Protocol: "naivemajority", N: 3, Inputs: in3}},
		{"2pc", Task{Protocol: "2pc", N: 3, Inputs: in3}},
		{"paxos-budget", Task{Protocol: "paxos", N: 3, Inputs: in3, Options: explore.Options{MaxConfigs: 600}}},
		{"naivemajority-depth4", Task{Protocol: "naivemajority", N: 3, Inputs: in3, Options: explore.Options{MaxDepth: 4}}},
		{"naivemajority-budget137", Task{Protocol: "naivemajority", N: 3, Inputs: in3, Options: explore.Options{MaxConfigs: 137}}},
	}
}

// TestLoopbackDifferentialDeterminism is the core acceptance test: shards
// ∈ {1, 2, 4} × worker processes ∈ {1, 4} × replicas ∈ {1, 2}, every
// combination compared byte-for-byte against the sequential engine over
// the loopback transport.
func TestLoopbackDifferentialDeterminism(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"w0", "w1", "w2", "w3"})
	for _, tc := range differentialTasks() {
		t.Run(tc.name, func(t *testing.T) {
			seqC, seqV, seq := seqStream(t, tc.task)
			for _, workers := range []int{1, 4} {
				cl := dialCluster(t, lb, addrs[:workers], RPCOptions{})
				for _, shards := range []int{1, 2, 4} {
					for _, replicas := range []int{1, 2} {
						tk := tc.task
						tk.Shards = shards
						tk.Replicas = replicas
						distC, distV, dist := distStream(t, cl, tk)
						label := fmt.Sprintf("%s/w%ds%dr%d", tc.name, workers, shards, replicas)
						compareStreams(t, label, seqC, seqV, seq, distC, distV, dist)
					}
				}
			}
		})
	}
}

// TestTCPDifferentialDeterminism runs the same differential over real TCP
// on localhost: the framing, deadline, and dial paths of the production
// transport.
func TestTCPDifferentialDeterminism(t *testing.T) {
	tr := TCP{}
	addrs, _ := startWorkers(t, tr, []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 600}}
	seqC, seqV, seq := seqStream(t, task)
	for _, workers := range []int{1, 4} {
		cl := dialCluster(t, tr, addrs[:workers], RPCOptions{})
		for _, shards := range []int{1, 2, 4} {
			tk := task
			tk.Shards = shards
			distC, distV, dist := distStream(t, cl, tk)
			label := "tcp/w" + string(rune('0'+workers)) + "s" + string(rune('0'+shards))
			compareStreams(t, label, seqC, seqV, seq, distC, distV, dist)
		}
	}
}

// TestDistributedAvoidFilter pins Lemma 3's "reachable without applying e"
// primitive: the Avoid event must suppress the same transitions in both
// engines.
func TestDistributedAvoidFilter(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, model.Inputs{0, 1, 1})
	var avoid *model.Event
	for _, e := range model.Events(c) {
		if e.IsNull() && model.IsNoOp(pr, c, e) {
			continue
		}
		ev := e
		avoid = &ev
		break
	}
	if avoid == nil {
		t.Fatal("no applicable event at the root")
	}
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Avoid: avoid, Options: explore.Options{MaxConfigs: 400}}
	seqC, seqV, seq := seqStream(t, task)
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"a0", "a1", "a2"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	task.Shards = 3
	distC, distV, dist := distStream(t, cl, task)
	compareStreams(t, "avoid", seqC, seqV, seq, distC, distV, dist)
}

// TestDistributedPrefix pins explore-from-C jobs: the prefix schedule is
// applied on every cluster member independently, and reconstructed witness
// paths are still relative to the post-prefix root.
func TestDistributedPrefix(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, model.Inputs{0, 1, 1})
	var prefix model.Schedule
	cur := c
	for len(prefix) < 2 {
		evs := model.Events(cur)
		advanced := false
		for _, e := range evs {
			if e.IsNull() && model.IsNoOp(pr, cur, e) {
				continue
			}
			prefix = append(prefix, e)
			cur = model.MustApply(pr, cur, e)
			advanced = true
			break
		}
		if !advanced {
			t.Fatal("could not build a 2-event prefix")
		}
	}
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Prefix: prefix, Options: explore.Options{MaxConfigs: 300}}
	seqC, seqV, seq := seqStream(t, task)
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"p0", "p1"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	task.Shards = 4 // more shards than workers: round-robin dealing
	distC, distV, dist := distStream(t, cl, task)
	compareStreams(t, "prefix", seqC, seqV, seq, distC, distV, dist)
}

// TestDistributedEarlyStop checks that a stopping visit sees the identical
// truncated stream and count as the in-process engines.
func TestDistributedEarlyStop(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}}
	pr := protocols.NewNaiveMajority(3)
	c := model.MustInitial(pr, task.Inputs)
	const stopAt = 40
	var seqSteps []step
	seqC, seqV := explore.ReferenceExplore(pr, c, explore.Options{}, nil,
		func(cfg *model.Config, depth int, path func() model.Schedule) bool {
			seqSteps = append(seqSteps, step{cfg.Key(), depth, path().String()})
			return len(seqSteps) == stopAt
		})
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"e0", "e1", "e2"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	var distSteps []step
	distC, distV, err := cl.Explore(task, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		distSteps = append(distSteps, step{cfg.Key(), depth, path().String()})
		return len(distSteps) == stopAt
	})
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "early-stop", seqC, seqV, seqSteps, distC, distV, distSteps)
}

// TestWorkerLostAborts severs one worker permanently mid-run with
// replication off: the exploration must abort promptly with a diagnostic
// error naming the lost worker — at R=1 a lost shard is unrecoverable
// state, and hanging or silently continuing would be worse than failing.
// (With the default R=2 the same loss fails over; see failover_test.go.)
func TestWorkerLostAborts(t *testing.T) {
	lb := NewLoopback()
	addrs, ls := startWorkers(t, lb, []string{"l0", "l1"})
	cl := dialCluster(t, lb, addrs, RPCOptions{
		RPCTimeout: 500 * time.Millisecond, DialTimeout: 100 * time.Millisecond,
		Retries: 1, RetryBackoff: 5 * time.Millisecond,
	})
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Replicas: 1}
	visits := 0
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Explore(task, func(*model.Config, int, func() model.Schedule) bool {
			visits++
			if visits == 5 {
				ls[1].Close()     // no re-dial possible
				ls[1].killConns() // and the live connection dies
			}
			return false
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("exploration succeeded despite a lost worker")
		}
		if !strings.Contains(err.Error(), "lost") {
			t.Fatalf("error does not identify the lost worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("exploration hung after losing a worker")
	}
}

// TestRetryAfterConnLoss severs connections only (workers stay up): the
// coordinator must re-dial, replay idempotently against the workers' kept
// job state, and still produce byte-identical results.
func TestRetryAfterConnLoss(t *testing.T) {
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 300}}
	seqC, seqV, seq := seqStream(t, task)
	lb := NewLoopback()
	addrs, ls := startWorkers(t, lb, []string{"r0", "r1"})
	cl := dialCluster(t, lb, addrs, RPCOptions{
		RPCTimeout: 5 * time.Second, Retries: 3, RetryBackoff: 5 * time.Millisecond,
	})
	var dist []step
	cut := false
	distC, distV, err := cl.Explore(task, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		dist = append(dist, step{cfg.Key(), depth, path().String()})
		if len(dist) == 25 && !cut {
			cut = true
			for _, l := range ls {
				l.killConns()
			}
		}
		return false
	})
	if err != nil {
		t.Fatalf("exploration failed despite live workers: %v", err)
	}
	compareStreams(t, "conn-loss", seqC, seqV, seq, distC, distV, dist)
}

// TestCountReachableParity checks the counting entry point end to end: the
// census kernels summed over every input vector, three workers × six
// shards, against the in-process engine inline and on the pool.
func TestCountReachableParity(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"c0", "c1", "c2"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	for _, name := range []string{"waitall", "naivemajority", "2pc"} {
		pr, err := RegistryProvider(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range model.AllInputs(3) {
			c := model.MustInitial(pr, in)
			seqCount, seqExact := explore.CountReachable(pr, c, explore.Options{Workers: 1})
			parCount, parExact := explore.CountReachable(pr, c, explore.Options{})
			count, exact, err := cl.CountReachable(Task{Protocol: name, N: 3, Inputs: in, Shards: 6})
			if err != nil {
				t.Fatal(err)
			}
			if count != seqCount || exact != seqExact || parCount != seqCount || parExact != seqExact {
				t.Errorf("%s inputs %s: CountReachable diverged: sequential (%d, %v), pool (%d, %v), distributed (%d, %v)",
					name, in, seqCount, seqExact, parCount, parExact, count, exact)
			}
		}
	}
}

// TestOwnerShardPartition checks the hash-range partition function:
// every fingerprint maps to a valid shard, ranges are contiguous and
// monotone, and the round-robin worker dealing covers all workers.
func TestOwnerShardPartition(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 64} {
		prev := 0
		for _, h := range []uint64{0, 1, 1 << 20, 1 << 40, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)} {
			s := ownerShard(h, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ownerShard(%d, %d) = %d out of range", h, shards, s)
			}
			if s < prev {
				t.Fatalf("ownerShard not monotone in hash: shard %d after %d", s, prev)
			}
			prev = s
		}
		if got := ownerShard(0, shards); got != 0 {
			t.Errorf("ownerShard(0, %d) = %d, want 0", shards, got)
		}
		if got := ownerShard(^uint64(0), shards); got != shards-1 {
			t.Errorf("ownerShard(max, %d) = %d, want %d", shards, got, shards-1)
		}
	}
	seen := map[int]bool{}
	for s := 0; s < 8; s++ {
		seen[shardReplicas(s, 3, 1)[0]] = true
	}
	if len(seen) != 3 {
		t.Errorf("round-robin dealing of 8 shards reached %d of 3 workers", len(seen))
	}
}
