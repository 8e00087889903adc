package distexplore

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// The distributed engine's contract is the in-process contract extended
// across processes, transports, worker kills and coordinator crashes:
// byte-identical visit streams, counts, witness schedules and truncation
// flags, held to enginetest's reference with enginetest's diff.

// taskOf is case c as a task over 6 shards at R = 2.
func taskOf(c enginetest.Case) Task {
	return Task{Protocol: c.Protocol, N: c.N, Inputs: c.Inputs, Prefix: c.Prefix, Avoid: c.Avoid, Options: c.Options, Shards: 6, Replicas: 2}
}

// reference is the reference stream of tk's exploration.
func reference(t *testing.T, tk Task) enginetest.Stream {
	t.Helper()
	ref, err := enginetest.Reference(enginetest.Case{Protocol: tk.Protocol, N: tk.N, Inputs: tk.Inputs, Prefix: tk.Prefix, Avoid: tk.Avoid, Options: tk.Options})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// record runs tk on cl and records its stream.
func record(t *testing.T, cl *Cluster, tk Task) enginetest.Stream {
	t.Helper()
	got, err := enginetest.Record(0, func(visit explore.Visit) (bool, int, error) { return cl.Explore(tk, visit) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// mustAgree fails t unless got is the reference stream ref.
func mustAgree(t *testing.T, label string, ref, got enginetest.Stream) {
	t.Helper()
	if err := enginetest.DiffStreams(ref, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// gridCases are the cases the clean cluster runs at every shape: finite
// protocols whole, and a budget and a depth cap that cut a level.
var gridCases = []string{"waitall3-011", "naivemajority3-011", "2pc3-011", "paxos-budget600", "naivemajority-depth4", "naivemajority-budget137"}

// TestClusterSuite runs the case table through the cluster four ways, over
// loopback, at 6 shards and R = 2 unless a shape says otherwise:
//   - clean, on long-lived clusters of every shape in workers {1, 4} ×
//     shards {1, 2, 4} × replicas {1, 2}: gridCases on all twelve, and the
//     whole table on four that take every value (one worker holding two
//     shards, and four workers over fewer, as many and more shards,
//     replicated and not);
//   - with worker 1 of 3 killed by script as level 1 opens;
//   - with worker 1 of 3 severed on an expand request inside a level the
//     coordinator walks in several chunks, where the budget cuts one;
//   - with the coordinator crashed as level 2 opens, checkpointing on, and
//     the run resumed on a fresh cluster.
func TestClusterSuite(t *testing.T) {
	t.Parallel() // beside TestChaosNeverWrong, which mostly waits out its delays
	t.Run("clean", func(t *testing.T) {
		lb := NewLoopback()
		addrs, _ := startWorkers(t, lb, []string{"w0", "w1", "w2", "w3"})
		all := enginetest.Cases(t)
		grid := slices.DeleteFunc(slices.Clone(all), func(c enginetest.Case) bool { return !slices.Contains(gridCases, c.Name) })
		if len(grid) != len(gridCases) {
			t.Fatalf("%d of the %d grid cases are in the table", len(grid), len(gridCases))
		}
		wide := map[[3]int]bool{{1, 2, 1}: true, {4, 1, 2}: true, {4, 2, 1}: true, {4, 4, 2}: true}
		for _, workers := range []int{1, 4} {
			cl := dialCluster(t, lb, addrs[:workers], RPCOptions{})
			for _, shards := range []int{1, 2, 4} {
				for _, replicas := range []int{1, 2} {
					cases := grid
					if wide[[3]int{workers, shards, replicas}] {
						cases = all
					}
					t.Run(fmt.Sprintf("w%ds%dr%d", workers, shards, replicas), func(t *testing.T) {
						enginetest.SuiteOn(t, cases, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
							tk := taskOf(c)
							tk.Shards, tk.Replicas = shards, replicas
							return cl.Explore(tk, visit)
						})
					})
				}
			}
		}
	})
	t.Run("kill", func(t *testing.T) {
		enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
			cl, fired := killCluster(t, []string{"k0", "k1", "k2"}, 1, 1, failoverOptions())
			deepest := 0
			complete, visited, err := cl.Explore(taskOf(c), func(cfg *model.Config, depth int, path func() model.Schedule) bool {
				deepest = max(deepest, depth)
				return visit(cfg, depth, path)
			})
			if c.StopAt == 0 && deepest >= 2 && !fired() {
				t.Error("the run went past level 1 and worker 1 was never killed")
			}
			return complete, visited, err
		})
	})
	t.Run("kill-inside-chunk", func(t *testing.T) {
		enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
			workers := []string{"c0", "c1", "c2"}
			tap := &frameTap{Transport: NewLoopback()}
			ft := NewFaultyTransport(tap, FaultPlan{})
			var listeners []*trackingListener
			severed := false
			watchChunks(tap, func(addr string, _ *expandReq, first bool) {
				if !severed && addr == workers[1] && !first {
					severed = true
					ft.kill(addr)
					listeners[1].killConns()
				}
			})
			addrs, listeners := startWorkers(t, ft, workers)
			return dialCluster(t, ft, addrs, failoverOptions()).Explore(taskOf(c), visit)
		})
	})
	t.Run("crash-resume", func(t *testing.T) {
		enginetest.Suite(t, func(t *testing.T, c enginetest.Case, visit explore.Visit) (bool, int, error) {
			tk := taskOf(c)
			tk.Checkpoints = openCheckpoints(t, t.TempDir())
			ft := NewFaultyTransport(NewLoopback(), FaultPlan{CoordKillLevel: 2})
			addrs, _ := startWorkers(t, ft, []string{"x0", "x1", "x2"})
			dialCluster(t, ft, addrs, failoverOptions()).Explore(tk, nil) // ends in the crash when the run reaches level 2
			lb := NewLoopback()
			addrs, _ = startWorkers(t, lb, []string{"r0", "r1", "r2"})
			cl := dialCluster(t, lb, addrs, failoverOptions())
			tk.Resume = true
			complete, visited, err := cl.Explore(tk, visit)
			if ft.coordKilled() && cl.RunStats().ResumedLevel != 1 {
				t.Errorf("crashed as level 2 opened, resumed at level %d, want 1", cl.RunStats().ResumedLevel)
			}
			return complete, visited, err
		})
	})
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

// TestTCPDifferentialDeterminism runs the same differential over real TCP
// on localhost: the framing, deadline, and dial paths of the production
// transport.
func TestTCPDifferentialDeterminism(t *testing.T) {
	tr := TCP{}
	addrs, _ := startWorkers(t, tr, []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	task := Task{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1},
		Options: explore.Options{MaxConfigs: 600}}
	ref := reference(t, task)
	for _, workers := range []int{1, 4} {
		cl := dialCluster(t, tr, addrs[:workers], RPCOptions{})
		for _, shards := range []int{1, 2, 4} {
			tk := task
			tk.Shards = shards
			mustAgree(t, fmt.Sprintf("tcp/w%ds%d", workers, shards), ref, record(t, cl, tk))
		}
	}
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
	lb := NewLoopback()
	addrs, ls := startWorkers(t, lb, []string{"r0", "r1"})
	cl := dialCluster(t, lb, addrs, RPCOptions{
		RPCTimeout: 5 * time.Second, Retries: 3, RetryBackoff: 5 * time.Millisecond,
	})
	got, err := enginetest.Record(0, func(visit explore.Visit) (bool, int, error) {
		visits := 0
		return cl.Explore(task, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
			if visits++; visits == 25 {
				for _, l := range ls {
					l.killConns()
				}
			}
			return visit(cfg, depth, path)
		})
	})
	if err != nil {
		t.Fatalf("exploration failed despite live workers: %v", err)
	}
	mustAgree(t, "conn-loss", reference(t, task), got)
}

// TestCountReachableParity checks the counting entry point end to end: the
// census kernels summed over every input vector, three workers × six
// shards, against the in-process engine inline and on the pool.
func TestCountReachableParity(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"c0", "c1", "c2"})
	cl := dialCluster(t, lb, addrs, RPCOptions{})
	for _, name := range []string{"waitall", "naivemajority", "2pc"} {
		pr, err := protocols.Resolve(name, 3)
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
