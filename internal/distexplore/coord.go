package distexplore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// RPCOptions tune the coordinator's client behaviour. The zero value is
// usable.
type RPCOptions struct {
	// RPCTimeout is the deadline for one request/response round trip,
	// including the worker's compute time. Default 2m.
	RPCTimeout time.Duration
	// DialTimeout bounds each connection attempt. Default 10s.
	DialTimeout time.Duration
	// Retries is how many times a transiently failed RPC is re-sent (with
	// a fresh connection) before the worker is declared lost. Worker-
	// reported errors are permanent and never retried. Default 2.
	Retries int
	// RetryBackoff is the base of the retry backoff: the backoff ceiling
	// doubles from it on each attempt, up to maxRetryBackoff (or
	// RetryBackoff, if larger). Default 50ms.
	RetryBackoff time.Duration
}

// maxRetryBackoff caps the retry backoff ceiling so repeated retries never
// sleep unboundedly long.
const maxRetryBackoff = 2 * time.Second

func (o RPCOptions) withDefaults() RPCOptions {
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 2 * time.Minute
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// backoffDelay computes the sleep before retry attempt (1-based): full
// jitter over an exponentially growing, capped ceiling — uniform in
// [0, min(max, base·2^(attempt-1))]. Jitter comes from the caller's seeded
// PRNG, never the global math/rand source, so tests get reproducible retry
// schedules.
func backoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	ceiling := base
	for i := 1; i < attempt && ceiling < max; i++ {
		ceiling *= 2
	}
	if ceiling > max {
		ceiling = max
	}
	if ceiling <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(ceiling) + 1))
}

// Task describes one distributed exploration: everything a worker needs to
// reconstruct the job locally, plus the exploration bounds.
type Task struct {
	// Protocol and N name the protocol instance; the coordinator resolves
	// it through protocols.Resolve, each worker through its own provider.
	Protocol string
	N        int
	// Inputs are the initial values defining the root configuration.
	Inputs model.Inputs
	// Prefix, when non-empty, is applied to the initial configuration to
	// produce the exploration root (explore-from-C jobs).
	Prefix model.Schedule
	// Avoid, when non-nil, suppresses events Same as it (Lemma 3's ℰ).
	Avoid *model.Event
	// Shards is the number of hash ranges the visited set is split into;
	// 0 means one per worker. More shards than workers is valid (shards
	// are dealt round-robin) and produces identical results.
	Shards int
	// Replicas is the shard replication factor R: shard s lives on workers
	// (s+r) mod W for r < R, so any R-1 worker losses leave a live copy of
	// every shard and the run fails over instead of aborting. 0 means
	// DefaultReplicas (2), capped at the worker count; 1 disables
	// replication — a lost worker then aborts with a diagnostic, exactly
	// the pre-replication behaviour. Results are byte-identical at every
	// R, with or without failures.
	Replicas int
	// Options carries the exploration bounds (MaxConfigs, MaxDepth).
	// Workers is ignored: in the distributed engine parallelism comes from
	// worker processes (see explore.Options.Workers for the full
	// Workers-versus-Shards contract).
	Options explore.Options
	// Checkpoints, when non-nil, makes the run crash-recoverable: at every
	// level boundary the coordinator durably records the admitted node
	// table, ledger flags, and expansion counters, keyed by the task's
	// identity (protocol + root key + avoid event + bounds — deliberately
	// not the cluster layout, so a resume may use different workers, shards,
	// or replication). The checkpoint is cleared on any deliberate end of
	// the run (completion or an early-stopping visit) and kept on crashes
	// and interrupts.
	Checkpoints *atlasstore.CheckpointStore
	// Resume asks Explore to restart from the newest checkpoint matching
	// this task's identity, if one exists: the node table is restored and
	// re-verified by replay, worker state is backfilled, visit callbacks for
	// the completed prefix are replayed, and the level loop re-enters at the
	// first pending level — re-expanding nothing before it. Without a
	// matching (or valid) checkpoint the run starts fresh.
	Resume bool
	// CheckpointHook, when non-nil, runs after each durable checkpoint
	// write with the level about to start. It exists for crash injection —
	// flpcluster's -kill-at-level sends the coordinator process SIGKILL from
	// it — and for tests; a non-nil error aborts the run.
	CheckpointHook func(level int) error
}

// WorkerError is a failure reported by a worker itself (as opposed to a
// transport failure): the job is in a broken state and the exploration
// aborts without retrying or failing over — a worker that *answers* with
// an error is not crashed, and promoting its standby would mask a real
// divergence.
type WorkerError struct {
	Worker int
	Addr   string
	Msg    string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("distexplore: worker %d (%s): %s", e.Worker, e.Addr, e.Msg)
}

// ErrInterrupted is returned by Explore when Interrupt was called: the
// run stopped cleanly at a level boundary, with the visited count
// reporting how many configurations were visited before the stop.
var ErrInterrupted = errors.New("distexplore: exploration interrupted at a level boundary")

// workerConn is the coordinator's view of one worker: its address, the
// current connection (nil while down; re-dialed on demand after failures),
// the worker's private jitter PRNG, built at its first retry (calls to one
// worker are serialized, so no lock), and the buffers its calls work in.
type workerConn struct {
	addr string
	framer
	rng *rand.Rand
	callBufs
	nexp int
}

// callBufs are the buffers one worker's calls work in. req is the buffer
// its dedup and adopt requests are encoded into: phases never overlap and
// one returns only after its calls have, so each overwrites the last. Every
// response but an expand's is decoded before the next call to the worker,
// into resp. An expand response's candidates alias the buffer they were
// read into until their chunk is admitted, and an expand re-issued to a
// promoted standby reaches a worker a second time within one chunk, so the
// chunk's n-th expand call to the worker reads into expands[n]; expandPhase
// starts the count over (nexp) for each chunk. They outlive runs, and go
// with the run memory to the next Cluster (clusterMem).
type callBufs struct {
	req     []byte
	resp    []byte
	expands [][]byte
}

// readBuf returns the buffer the response to a typ request is read into.
func (wc *workerConn) readBuf(typ byte) *[]byte {
	if typ != frameExpand {
		return &wc.resp
	}
	if wc.nexp == len(wc.expands) {
		wc.expands = append(wc.expands, nil)
	}
	return &wc.expands[wc.nexp]
}

// Cluster is a coordinator's handle on a set of workers. It drives the
// level-synchronous exploration loop: workers expand the frontier shards
// they lead and answer dedup queries; the cluster merges every level's
// candidates in canonical order, so results are byte-identical to the
// in-process engines at any worker, shard, and replica count — including
// across single-worker failures when replication is on. A Cluster is not
// safe for concurrent use; run one exploration at a time (Interrupt may be
// called from any goroutine).
type Cluster struct {
	tr          Transport
	opt         RPCOptions
	workers     []*workerConn
	interrupted atomic.Bool
	stats       RunStats

	// mem is what runs work in and no result outlives, handed from one run
	// to the next (run.go): borrowed by the first run, given back by Close.
	mem *clusterMem
}

// RunStats are recovery-relevant counters of the most recent Explore call,
// reset at its start. They pin the "resume re-expands nothing" contract:
// after a resumed run, ExpandedNodes equals the uninterrupted run's total
// while LiveExpanded counts only the nodes expanded after the restored
// level — their difference is exactly the restored prefix.
type RunStats struct {
	// ExpandedNodes is the cumulative number of admitted nodes whose level
	// ran an expansion phase, including levels restored from a checkpoint.
	ExpandedNodes int
	// LiveExpanded counts only nodes expanded by this process — zero work
	// re-done before the resumed level.
	LiveExpanded int
	// ResumedNodes is the size of the node table restored from a
	// checkpoint (0 on a fresh run).
	ResumedNodes int
	// ResumedLevel is the first pending level after the restore, or -1 on
	// a fresh run.
	ResumedLevel int
	// Checkpoints is how many level-boundary checkpoints this run wrote.
	Checkpoints int
}

// RunStats reports the counters of the most recent Explore call. Like
// Explore itself it is not safe for concurrent use.
func (cl *Cluster) RunStats() RunStats { return cl.stats }

// Dial connects to every worker address eagerly, so a dead cluster member
// surfaces before any exploration state exists.
func Dial(tr Transport, addrs []string, opt RPCOptions) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distexplore: no worker addresses")
	}
	cl := &Cluster{tr: tr, opt: opt.withDefaults()}
	for _, a := range addrs {
		cl.workers = append(cl.workers, &workerConn{addr: a})
	}
	for i := range cl.workers {
		if err := cl.redial(i); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// Close drops every worker connection and gives the memory the Cluster's
// runs worked in back to the process, for the next Cluster to start warm
// (clusterMem). Worker processes keep running and can serve future
// coordinators. A closed Cluster may explore again: it re-dials its
// workers on demand and borrows afresh. Close must not run during Explore.
func (cl *Cluster) Close() error {
	for _, wc := range cl.workers {
		if wc.conn != nil {
			wc.conn.Close()
			wc.conn = nil
		}
	}
	cl.giveBack()
	return nil
}

// Interrupt requests a graceful stop: the running Explore finishes the
// level it is on, then returns ErrInterrupted with the visit count so far.
// Safe to call from any goroutine (signal handlers, typically).
func (cl *Cluster) Interrupt() { cl.interrupted.Store(true) }

func (cl *Cluster) redial(w int) error {
	wc := cl.workers[w]
	if wc.conn != nil {
		wc.conn.Close()
		wc.conn = nil
	}
	c, err := cl.tr.Dial(wc.addr, cl.opt.DialTimeout)
	if err != nil {
		return fmt.Errorf("distexplore: dialing worker %d (%s): %w", w, wc.addr, err)
	}
	wc.conn = c
	return nil
}

// call performs one RPC against worker w: bounded retries with capped,
// fully-jittered exponential backoff and a fresh connection per attempt
// cover transient transport failures; worker job state plus idempotent
// per-level request handling make the retried request safe. A frameErr
// response is a worker-reported permanent failure. When every attempt
// fails the worker is declared lost — with replication the caller fails
// over to a standby; without a surviving replica the exploration aborts
// with the diagnostic error built here.
func (cl *Cluster) call(w int, typ byte, payload []byte) (byte, []byte, error) {
	wc := cl.workers[w]
	var lastErr error
	for attempt := 0; attempt <= cl.opt.Retries; attempt++ {
		if attempt > 0 {
			if wc.rng == nil {
				// Worker w's retry jitter comes from its own PRNG seeded
				// 1+w, so a retry schedule replays exactly.
				wc.rng = rand.New(rand.NewSource(1 + int64(w)))
			}
			time.Sleep(backoffDelay(cl.opt.RetryBackoff, max(maxRetryBackoff, cl.opt.RetryBackoff), attempt, wc.rng))
		}
		if wc.conn == nil {
			if lastErr = cl.redial(w); lastErr != nil {
				continue
			}
		}
		deadline := time.Now().Add(cl.opt.RPCTimeout)
		if err := wc.write(deadline, typ, payload); err != nil {
			lastErr = err
			wc.conn.Close()
			wc.conn = nil
			continue
		}
		buf := wc.readBuf(typ)
		rtyp, rpayload, err := wc.read(deadline, *buf)
		if err != nil {
			lastErr = err
			wc.conn.Close()
			wc.conn = nil
			continue
		}
		*buf = rpayload
		if typ == frameExpand {
			wc.nexp++
		}
		if rtyp == frameErr {
			return 0, nil, &WorkerError{Worker: w, Addr: wc.addr, Msg: string(rpayload)}
		}
		return rtyp, rpayload, nil
	}
	return 0, nil, fmt.Errorf(
		"distexplore: worker %d (%s) lost after %d attempts (%w); its visited-set shards are unrecoverable without a replica, aborting unless one survives",
		w, wc.addr, cl.opt.Retries+1, lastErr)
}

// fanout runs f once per worker concurrently (each worker has its own
// connection, and call serializes per worker) and returns the
// lowest-indexed error.
func (cl *Cluster) fanout(f func(w int) error) error {
	errs := make([]error, len(cl.workers))
	done := make(chan struct{})
	for w := range cl.workers {
		go func(w int) {
			errs[w] = f(w)
			done <- struct{}{}
		}(w)
	}
	for range cl.workers {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// expectOK runs one RPC and accepts only an empty acknowledgement.
func (cl *Cluster) expectOK(w int, typ byte, payload []byte) error {
	rtyp, _, err := cl.call(w, typ, payload)
	if err != nil {
		return err
	}
	if rtyp != frameOK {
		return fmt.Errorf("distexplore: worker %d: unexpected response frame 0x%02x", w, rtyp)
	}
	return nil
}

// replicatedFanout sends each worker with a non-nil payload (payloads is
// indexed by worker) its payload concurrently and sorts the outcomes by
// failure mode: transport losses mark the worker dead in rs (the caller
// fails over or aborts on coverage), while worker-reported errors and
// malformed responses abort immediately — lowest worker index wins for
// determinism. The responses are returned by worker index, nil for a worker
// that was sent nothing or was lost (an empty acknowledgement may read as
// nil too).
func (cl *Cluster) replicatedFanout(rs *replicaSet, typ byte, wantResp byte, payloads [][]byte) ([][]byte, error) {
	resps := make([][]byte, len(cl.workers))
	errs := make([]error, len(cl.workers))
	var wg sync.WaitGroup
	for w, p := range payloads {
		if p == nil || !rs.live(w) {
			continue
		}
		wg.Add(1)
		go func(w int, p []byte) {
			defer wg.Done()
			rtyp, resp, err := cl.call(w, typ, p)
			if err != nil {
				errs[w] = err
				return
			}
			if rtyp != wantResp {
				errs[w] = &WorkerError{Worker: w, Addr: cl.workers[w].addr,
					Msg: fmt.Sprintf("unexpected response frame 0x%02x", rtyp)}
				return
			}
			resps[w] = resp
		}(w, p)
	}
	wg.Wait()
	for w := range cl.workers {
		if errs[w] != nil {
			var we *WorkerError
			if errors.As(errs[w], &we) {
				return nil, errs[w] // permanent: state is broken, not lost
			}
			rs.markLost(w, errs[w])
		}
	}
	return resps, nil
}

// Explore runs the distributed breadth-first exploration described by t
// and reports exactly what explore.ExploreFiltered would: whether the
// reachable set was exhausted and how many distinct configurations were
// visited, with visit called in the identical deterministic order. The
// error return is the one addition — with replication (Replicas ≥ 2) the
// run survives the loss of any worker per shard chain with byte-identical
// results, and aborts with a diagnostic only when a shard's entire replica
// chain is gone (with Replicas = 1, on any loss, as before).
func (cl *Cluster) Explore(t Task, visit explore.Visit) (complete bool, visited int, err error) {
	r, err := cl.newRun(t, visit)
	if err != nil {
		return false, 0, err
	}
	defer r.release() // last: the write-behind below has drained by then
	if err := cl.fanout(r.initWorker); err != nil {
		return false, 0, err
	}
	defer cl.shutdown(r.rs) // workers now hold state; tear it down on every exit path
	if t.Checkpoints != nil {
		r.openCheckpoints()
		defer r.ckw.close()
	}
	start, err := r.begin()
	for err == nil && start < r.nodes.Len() {
		start, err = r.walkLevel(start)
	}
	return r.result(start, err)
}

// CountReachable is the distributed counterpart of
// explore.CountReachable.
func (cl *Cluster) CountReachable(t Task) (count int, exact bool, err error) {
	complete, visited, err := cl.Explore(t, nil)
	return visited, complete, err
}

// shutdown releases worker job state at the end of an exploration,
// best-effort on the workers still live: a worker that cannot be reached
// simply keeps its state until the next Init replaces it.
func (cl *Cluster) shutdown(rs *replicaSet) {
	cl.fanout(func(w int) error {
		if rs != nil && !rs.live(w) {
			return nil
		}
		cl.expectOK(w, frameShutdown, nil)
		return nil
	})
}
