package distexplore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// A worker's visited interner outlives the job and a connection's payload
// buffers outlive the request; all of it, and a Cluster's run memory, goes
// on to the next Worker, connection or Cluster in the process. The tests
// below hold the things that makes unsafe if done wrong: a job must not see
// the last job's visited keys, a connection must not see another
// connection's bytes, the job must not keep a reference into a request it
// has answered, and a cluster must not see anything of one that came before
// it or runs beside it.

// TestJobsBackToBackOnOneCluster runs four jobs on one long-lived cluster —
// the third is the first again, so every key it dedups was interned by a
// job before it — and holds each to the sequential oracle. A visited set
// that was not emptied at init would call the third job's nodes seen and
// drop them.
func TestJobsBackToBackOnOneCluster(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"l0", "l1", "l2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	for i, k := range []int{1, 3, 1, 0} {
		k := budgetKernels[k]
		task := Task{Protocol: k.name, N: k.n, Inputs: enginetest.Alternating(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		mustAgree(t, fmt.Sprintf("job %d on the long-lived cluster", i+1), reference(t, task), record(t, cl, task))
	}
}

// stallTransport loses one response in the middle: once armed, the next
// expand response of at least 64 bytes from addr is read halfway and then
// reported as a transport error, and the coordinator's Close of that
// connection is withheld — the worker's handler stays blocked writing the
// other half, as it would into a full socket, while the coordinator re-dials
// and the run goes on over a second connection to the same worker. finish
// reads the rest of the stalled response.
type stallTransport struct {
	Transport
	addr string

	mu      sync.Mutex
	armed   bool
	stalled *stallConn
	retried []byte // the next expand response from addr: the same request, answered again
}

func (st *stallTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := st.Transport.Dial(addr, timeout)
	if err != nil || addr != st.addr {
		return c, err
	}
	return &stallConn{Conn: c, st: st}, nil
}

func (st *stallTransport) arm() {
	st.mu.Lock()
	st.armed = true
	st.mu.Unlock()
}

// stallConn follows the framer's reads: five header bytes, then the payload
// in one buffer.
type stallConn struct {
	net.Conn
	st      *stallTransport
	typ     byte
	payload bool // the next Read is a payload
	half    []byte
	rest    int
}

var errStalled = errors.New("injected: response lost mid-frame")

func (c *stallConn) Read(p []byte) (int, error) {
	if !c.payload {
		n, err := io.ReadFull(c.Conn, p)
		if err == nil && len(p) == 5 {
			c.typ, c.payload = p[4], p[0]|p[1]|p[2]|p[3] != 0
		}
		return n, err
	}
	c.payload = false
	if c.typ != frameExpandResp || len(p) < 64 {
		return io.ReadFull(c.Conn, p)
	}
	c.st.mu.Lock()
	stall := c.st.armed && c.st.stalled == nil
	if stall {
		c.st.stalled = c
	}
	record := !stall && c.st.stalled != nil && c.st.retried == nil
	c.st.mu.Unlock()
	if stall {
		c.half, c.rest = make([]byte, len(p)/2), len(p)-len(p)/2
		if _, err := io.ReadFull(c.Conn, c.half); err != nil {
			return 0, err
		}
		return 0, errStalled
	}
	n, err := io.ReadFull(c.Conn, p)
	if record {
		c.st.mu.Lock()
		c.st.retried = append([]byte{}, p[:n]...)
		c.st.mu.Unlock()
	}
	return n, err
}

func (c *stallConn) Close() error {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.st.stalled == c {
		return nil // withheld until finish
	}
	return c.Conn.Close()
}

// finish drains the stalled response and returns all of it.
func (st *stallTransport) finish() ([]byte, error) {
	st.mu.Lock()
	c := st.stalled
	st.mu.Unlock()
	if c == nil {
		return nil, errors.New("no response was stalled")
	}
	defer c.Conn.Close()
	rest := make([]byte, c.rest)
	if err := c.Conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(c.Conn, rest); err != nil {
		return nil, err
	}
	return append(c.half, rest...), nil
}

// TestDyingConnectionKeepsItsResponse is the reason the payload buffers are
// the connection's and not the worker's: while one connection's handler is
// still writing an expand response, the coordinator has re-dialed and the
// new connection's requests are being dispatched — expand responses among
// them — on the same worker. The response is lost in the cluster's second
// job, when the first has grown every buffer past anything the second
// sends, so a buffer shared between the connections would be overwritten in
// place. The stalled response, drained after the run, must be byte for byte
// what the worker answered when the same request was retried (expansion is
// pure).
func TestDyingConnectionKeepsItsResponse(t *testing.T) {
	k := budgetKernels[1]
	task := Task{Protocol: k.name, N: k.n, Inputs: enginetest.Alternating(k.n), Shards: 6, Replicas: 2,
		Options: explore.Options{MaxConfigs: k.budget}}
	ref := reference(t, task)
	st := &stallTransport{Transport: NewLoopback(), addr: "y1"}
	addrs, _ := startWorkers(t, st, []string{"y0", "y1", "y2"})
	cl := dialCluster(t, st, addrs, failoverOptions())
	mustAgree(t, "first job", ref, record(t, cl, task))
	st.arm()
	mustAgree(t, "second job, a response lost mid-frame", ref, record(t, cl, task))
	stalled, err := st.finish()
	if err != nil {
		t.Fatalf("draining the stalled response: %v", err)
	}
	if st.retried == nil {
		t.Fatal("the request was never retried on a second connection")
	}
	if !bytes.Equal(stalled, st.retried) {
		t.Errorf("the stalled connection delivered %d bytes that differ from the %d-byte answer to the retried request: its buffer was written while it was in flight",
			len(stalled), len(st.retried))
	}
}

// TestWorkerKeepsNothingOfTheRequest is what makes reusing a connection's
// request buffer sound: once dispatch has returned, nothing the job holds —
// visited keys, frontier configurations, the level cache, events — may point
// into the payload. Two workers are driven through the same requests; one
// has every payload overwritten with 0xFF the moment dispatch returns. Every
// answer must be the same, byte for byte, down to a dedup of keys interned
// from poisoned payloads (all seen) and the expansion of nodes adopted from
// one.
func TestWorkerKeepsNothingOfTheRequest(t *testing.T) {
	clean, poisoned := NewWorker(nil), NewWorker(nil)
	step := 0
	send := func(typ byte, payload []byte) []byte {
		t.Helper()
		step++
		_, want := clean.dispatch(typ, append([]byte(nil), payload...), new([]byte))
		mine := append([]byte(nil), payload...)
		rtyp, got := poisoned.dispatch(typ, mine, new([]byte))
		for i := range mine {
			mine[i] = 0xFF
		}
		if rtyp == frameErr {
			t.Fatalf("request %d (frame 0x%02x): %s", step, typ, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (frame 0x%02x): the worker whose earlier payloads were overwritten answers differently", step, typ)
		}
		return got
	}
	avoid := model.NullEvent(2)
	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Avoid: &avoid,
		Prefix: model.Schedule{model.NullEvent(0)}, Shards: 1, WorkerCount: 1, Replicas: 1}
	send(frameInit, req.encode())
	pr, _ := RegistryProvider(req.Protocol, req.N)
	root := model.MustApplySchedule(pr, model.MustInitial(pr, req.Inputs), req.Prefix)
	send(frameAdopt, appendAdoptReq(nil, 0, nil, []adoptNode{{wireKey: identityOf(root)}}))

	next := uint64(1)
	parents := []uint64{0}
	for level := 0; level < 3; level++ {
		_, cands, err := decodeCandidates(send(frameExpand, (&expandReq{Level: level, Lo: int(parents[0]), Hi: int(next), Shards: []int{0}}).encode()), nil)
		if err != nil || len(cands) == 0 {
			t.Fatalf("level %d: %d candidates, %v", level, len(cands), err)
		}
		group := []shardGroup{{Shard: 0}}
		for _, c := range cands {
			group[0].Keys = append(group[0].Keys, c.wireKey)
		}
		_, _, answer, err := decodeDedupResp(send(frameDedup, appendDedupReq(nil, level, int(parents[0]), group)), nil)
		if err != nil || len(answer) != 1 || len(answer[0].Fresh) == 0 {
			t.Fatalf("level %d: dedup answered %+v, %v", level, answer, err)
		}
		// The same keys as another chunk: interned from a payload that has
		// since been overwritten, they must all be found.
		if _, _, again, _ := decodeDedupResp(send(frameDedup, appendDedupReq(nil, level, int(next), group)), nil); len(again[0].Fresh) != 0 {
			t.Fatalf("level %d: %d keys interned from an overwritten payload are no longer found", level, len(again[0].Fresh))
		}
		var adopts []adoptNode
		parents = parents[:0]
		for _, i := range answer[0].Fresh {
			c := cands[i]
			adopts = append(adopts, adoptNode{Index: next, Depth: uint64(level + 1), wireKey: c.wireKey, Parent: c.Parent, Via: c.Via})
			parents = append(parents, next)
			next++
		}
		send(frameAdopt, appendAdoptReq(nil, level+1, nil, adopts))
	}
}

// TestClusterVisitPathOnlyDuringVisit holds the one path func a run hands
// every visit to explore.Visit's contract, as TestVisitPathOnlyDuringVisit
// holds the in-process engine to it: called inside its visit it answers the
// reference's schedule, and kept past its visit — after the run ran to its
// end, or after a visit stopped it — it panics instead of reading a node
// table the cluster's next run overwrites. The runs share one cluster, so
// each but the first walks on the tables of the one before.
func TestClusterVisitPathOnlyDuringVisit(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"v0", "v1", "v2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	k := budgetKernels[1]
	whole := enginetest.Case{Protocol: k.name, N: k.n, Inputs: enginetest.Alternating(k.n), Options: explore.Options{MaxConfigs: k.budget}}
	stopped := whole
	stopped.StopAt = 57
	const msg = "distexplore: path called outside its visit"
	for _, c := range []enginetest.Case{whole, stopped, whole} {
		want, err := enginetest.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		tk := taskOf(c)
		tk.Shards, tk.Replicas = 6, 2
		var kept func() model.Schedule
		got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
			return cl.Explore(tk, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
				kept = path
				return visit(cfg, depth, path) // Record calls path inside the visit
			})
		})
		if err == nil {
			err = enginetest.DiffStreams(want, got)
		}
		if err != nil {
			t.Fatalf("stopAt=%d: %v", c.StopAt, err)
		}
		if v := pathPanic(kept); v != msg {
			t.Fatalf("stopAt=%d: a path kept past its visit answered (panic %v), want panic %q", c.StopAt, v, msg)
		}
	}
}

// pathPanic calls path and returns what it panicked with, or nil.
func pathPanic(path func() model.Schedule) (v any) {
	defer func() { v = recover() }()
	path()
	return nil
}

// TestFailoverKeepsExpandBuffers is what makes the coordinator's per-call
// expand buffers (workerConn.expands) necessary: a chunk's candidates alias
// the response they were read from until the chunk is admitted, and an
// expand re-issued to a promoted standby reaches a worker that has already
// answered an expand of the same chunk. Jobs run first on the long-lived
// cluster, so every buffer has grown past what a response of the last job
// needs and is reused in place; then a worker is severed on an expand
// request of a deep level of that job, by the fault transport. Were the
// standby's second response read into the buffer of its first, the first's
// candidate keys would be overwritten before dedup and adoption read them.
// The run must equal the oracle, byte for byte, and the re-issue must have
// happened.
func TestFailoverKeepsExpandBuffers(t *testing.T) {
	workers := []string{"f0", "f1", "f2"}
	tap := &frameTap{Transport: NewLoopback()}
	ft := NewFaultyTransport(tap, FaultPlan{})
	var listeners []*trackingListener
	armed, severed := false, false
	calls := map[string]int{} // expand calls per (worker, chunk) of the armed job
	watchChunks(tap, func(addr string, q *expandReq, _ bool) {
		if !armed {
			return
		}
		calls[fmt.Sprintf("%s %d/%d", addr, q.Level, q.Lo)]++
		if !severed && addr == workers[1] && q.Level == 4 {
			severed = true
			ft.kill(addr)
			listeners[1].killConns()
		}
	})
	addrs, listeners := startWorkers(t, ft, workers)
	cl := dialCluster(t, ft, addrs, failoverOptions())
	for i, k := range []int{3, 1, 2, 1} {
		k := budgetKernels[k]
		task := Task{Protocol: k.name, N: k.n, Inputs: enginetest.Alternating(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		tap.mu.Lock()
		armed = i == 3
		tap.mu.Unlock()
		mustAgree(t, fmt.Sprintf("job %d on the long-lived cluster", i+1), reference(t, task), record(t, cl, task))
	}
	if !severed {
		t.Fatal("the worker was never lost: the test does not reach what it is about")
	}
	reissued := false
	for _, n := range calls {
		reissued = reissued || n > 1
	}
	if !reissued {
		t.Error("no worker was asked twice for one chunk: the test does not reach what it is about")
	}
}

// ownedCluster is a loopback cluster whose workers the test holds. stop
// ends it the way a shutdown does: the coordinator closed, the listeners
// closed, every worker drained and waited — so the Cluster and every Worker
// hand their memory back to the process, for the next cluster to borrow.
type ownedCluster struct {
	*Cluster
	listeners []Listener
	workers   []*Worker
	serving   sync.WaitGroup
	once      sync.Once
}

// startOwned boots one worker per address on tr, dials them, and stops the
// cluster at the end of the test unless the test stopped it first.
func startOwned(t testing.TB, tr Transport, addrs []string, opt RPCOptions) *ownedCluster {
	t.Helper()
	c := &ownedCluster{}
	t.Cleanup(c.stop)
	var dial []string
	for _, a := range addrs {
		l, err := tr.Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(nil)
		c.listeners, c.workers, dial = append(c.listeners, l), append(c.workers, w), append(dial, l.Addr())
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			w.Serve(l)
		}()
	}
	cl, err := Dial(tr, dial, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Cluster = cl
	return c
}

func (c *ownedCluster) stop() {
	c.once.Do(func() {
		if c.Cluster != nil {
			c.Close()
		}
		for _, l := range c.listeners {
			l.Close()
		}
		c.serving.Wait()
		for _, w := range c.workers {
			w.Drain()
			w.Wait()
		}
	})
}

// successionStep is one cluster of a succession: a task, and how the
// cluster dies.
type successionStep struct {
	label string
	task  Task
	kill  bool // worker 1 is killed by script as level 3 opens
	crash bool // the coordinator crashes as level 2 opens; a second cluster resumes
}

// succession is a run of differently shaped clusters: protocols and process
// counts, shards 1, 4 and 6, replicas 1 and 2, an avoided event, a prefix, a
// killed worker, and a crashed coordinator whose run another cluster
// resumes.
func succession(t *testing.T) []successionStep {
	byName := map[string]enginetest.Case{}
	for _, c := range enginetest.Cases(t) {
		byName[c.Name] = c
	}
	avoid, prefix := byName["naivemajority-avoid-budget400"], byName["naivemajority-prefix2-budget300"]
	if avoid.Avoid == nil || len(prefix.Prefix) == 0 {
		t.Fatal("the case table lost its avoid or prefix case")
	}
	budget := func(name string, n, max, shards, replicas int) Task {
		return Task{Protocol: name, N: n, Inputs: enginetest.Alternating(n), Shards: shards, Replicas: replicas,
			Options: explore.Options{MaxConfigs: max}}
	}
	withShape := func(tk Task, shards, replicas int) Task {
		tk.Shards, tk.Replicas = shards, replicas
		return tk
	}
	return []successionStep{
		{label: "paxos(3)@400, 6 shards, R=2", task: budget("paxos", 3, 400, 6, 2)},
		{label: "naivemajority(3) whole, 1 shard, R=1", task: budget("naivemajority", 3, 0, 1, 1)},
		{label: "naivemajority(3) avoiding an event, 4 shards, R=2", task: withShape(taskOf(avoid), 4, 2)},
		{label: "onethird(4)@400, worker killed, 6 shards, R=2", task: budget("onethird", 4, 400, 6, 2), kill: true},
		{label: "naivemajority(3) from a prefix, 6 shards, R=1", task: withShape(taskOf(prefix), 6, 1)},
		{label: "naivemajority(4)@400, coordinator crashed and resumed, 6 shards, R=2", task: budget("naivemajority", 4, 400, 6, 2), crash: true},
		{label: "2pc(3) whole, 4 shards, R=1", task: budget("2pc", 3, 0, 4, 1)},
		{label: "paxos(3)@600, 4 shards, R=2", task: budget("paxos", 3, 600, 4, 2)},
	}
}

// runSuccession runs every step on a fresh cluster, each stopped — closed,
// drained and waited — before the next starts, and holds each run to the
// reference stream, visit paths included.
func runSuccession(t *testing.T) {
	workers := []string{"s0", "s1", "s2"}
	for _, st := range succession(t) {
		ref := reference(t, st.task)
		var got enginetest.Stream
		switch {
		case st.kill:
			ft := NewFaultyTransport(NewLoopback(), FaultPlan{KillAddr: workers[1], KillLevel: 3})
			c := startOwned(t, ft, workers, failoverOptions())
			got = record(t, c.Cluster, st.task)
			c.stop()
			ft.mu.Lock()
			killed := ft.killed[workers[1]]
			ft.mu.Unlock()
			if !killed {
				t.Fatalf("%s: worker 1 was never killed", st.label)
			}
		case st.crash:
			tk := st.task
			tk.Checkpoints = openCheckpoints(t, t.TempDir())
			ft := NewFaultyTransport(NewLoopback(), FaultPlan{CoordKillLevel: 2})
			c := startOwned(t, ft, workers, failoverOptions())
			if _, _, err := c.Explore(tk, nil); err == nil || !ft.coordKilled() {
				t.Fatalf("%s: the coordinator was not killed (run ended with %v)", st.label, err)
			}
			c.stop()
			tk.Resume = true
			c = startOwned(t, NewLoopback(), workers, failoverOptions())
			got = record(t, c.Cluster, tk)
			if c.RunStats().ResumedLevel < 0 {
				t.Fatalf("%s: the second cluster found no checkpoint", st.label)
			}
			c.stop()
		default:
			c := startOwned(t, NewLoopback(), workers, failoverOptions())
			got = record(t, c.Cluster, st.task)
			c.stop()
		}
		mustAgree(t, st.label, ref, got)
	}
}

// TestSuccessiveClustersShareNothing is the hazard of handing memory from a
// stopped Cluster, Worker or connection to the next one: every cluster of a
// succession borrows what the one before it grew — run memory, call and
// payload buffers, visited interners and scratch, a killed worker's and a
// crashed coordinator's included — and must answer exactly as the reference
// does. The second leg runs two successions at once, so two live clusters
// borrow from and give back to the same spares.
func TestSuccessiveClustersShareNothing(t *testing.T) {
	t.Run("one", runSuccession)
	t.Run("two-at-once", func(t *testing.T) {
		for i := range 2 {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				runSuccession(t)
			})
		}
	})
}

// TestClusterExploresAfterClose: Close gives the Cluster's memory back, and
// a closed Cluster explored again re-dials, borrows afresh and answers as
// before.
func TestClusterExploresAfterClose(t *testing.T) {
	lb := NewLoopback()
	addrs, _ := startWorkers(t, lb, []string{"a0", "a1", "a2"})
	cl := dialCluster(t, lb, addrs, failoverOptions())
	for i, k := range []int{1, 3, 1} {
		k := budgetKernels[k]
		task := Task{Protocol: k.name, N: k.n, Inputs: enginetest.Alternating(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		mustAgree(t, fmt.Sprintf("run %d, closed after each", i+1), reference(t, task), record(t, cl, task))
		if cl.mem == nil {
			t.Fatalf("run %d: the cluster runs on no memory of its own", i+1)
		}
		cl.Close()
		if cl.mem != nil {
			t.Fatalf("run %d: Close kept the cluster's memory", i+1)
		}
	}
}

// rawCall sends one request frame on c and reads the response.
func rawCall(t *testing.T, c net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	f := framer{conn: c}
	deadline := time.Now().Add(5 * time.Second)
	if err := f.write(deadline, typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, resp, err := f.read(deadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, resp
}

// serveOn serves w on a new loopback endpoint and returns a connection to
// it and the listener; the loop has ended when served is closed.
func serveOn(t *testing.T, lb *Loopback, w *Worker, addr string) (net.Conn, Listener, <-chan struct{}) {
	t.Helper()
	l, err := lb.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.Serve(l)
	}()
	c, err := lb.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, l, served
}

// startJob installs a naivemajority(3) job on the worker behind c.
func startJob(t *testing.T, c net.Conn) {
	t.Helper()
	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 1, WorkerCount: 1, Replicas: 1}
	if rtyp, resp := rawCall(t, c, frameInit, req.encode()); rtyp != frameOK {
		t.Fatalf("init answered 0x%02x: %s", rtyp, resp)
	}
}

// held reports whether w holds a job and memory for jobs.
func (w *Worker) held() (job, mem bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.job != nil, w.mem != nil
}

var expandLevel0 = (&expandReq{Level: 0, Lo: 0, Hi: 1, Shards: []int{0}}).encode()

// TestWorkerServedAgainAfterDrain: Wait after Drain drops the job a killed
// connection left behind and gives the worker's memory back; a coordinator
// that re-dials the worker, served again, is told it has no job.
func TestWorkerServedAgainAfterDrain(t *testing.T) {
	lb := NewLoopback()
	w := NewWorker(nil)
	c, l, served := serveOn(t, lb, w, "d0")
	startJob(t, c)
	c.Close() // the connection dies with the job active
	w.Drain()
	l.Close()
	<-served
	w.Wait()
	if job, mem := w.held(); job || mem {
		t.Fatalf("after Drain and Wait the worker holds a job: %v, memory: %v; want neither", job, mem)
	}
	c, l, served = serveOn(t, lb, w, "d1")
	defer func() { c.Close(); l.Close(); <-served; w.Wait() }()
	rtyp, resp := rawCall(t, c, frameExpand, expandLevel0)
	if rtyp != frameErr || !strings.Contains(string(resp), "expand without an active job") {
		t.Fatalf("a re-dialed coordinator's expand was answered 0x%02x %q, want the no-active-job error", rtyp, resp)
	}
}

// TestWorkerWaitWithoutDrainKeepsTheJob: Wait alone hands nothing back — a
// coordinator that re-dials finds the job it left.
func TestWorkerWaitWithoutDrainKeepsTheJob(t *testing.T) {
	lb := NewLoopback()
	w := NewWorker(nil)
	c, l, served := serveOn(t, lb, w, "e0")
	startJob(t, c)
	c.Close()
	l.Close()
	<-served
	w.Wait()
	if job, mem := w.held(); !job || !mem {
		t.Fatalf("Wait without Drain left the worker holding a job: %v, memory: %v; want both", job, mem)
	}
	c, l, served = serveOn(t, lb, w, "e1")
	defer func() { c.Close(); l.Close(); <-served; w.Wait() }()
	if rtyp, resp := rawCall(t, c, frameExpand, expandLevel0); rtyp != frameExpandResp {
		t.Fatalf("a re-dialed coordinator's expand was answered 0x%02x %q, want an expand response", rtyp, resp)
	}
}
