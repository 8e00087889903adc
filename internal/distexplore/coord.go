package distexplore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	// RetryBackoff, if larger). It is also the interval between
	// replacement-worker dial attempts during a RejoinWait. Default 50ms.
	RetryBackoff time.Duration
	// RejoinWait, when positive, converts a shard-coverage loss (every
	// replica of some shard dead) from a hard abort into a bounded wait: the
	// coordinator polls the dead workers' addresses until a replacement
	// process answers, re-initializes it, backfills the admitted state for
	// every shard it replicates, and retries the failed phase — results stay
	// byte-identical because the backfill reconstructs exactly the state a
	// live replica would hold at the level boundary. On timeout the run
	// aborts with the usual coverage-loss diagnostic, extended with how long
	// it waited. 0 (the default) preserves the abort-immediately behaviour.
	RejoinWait time.Duration
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
	// it through RegistryProvider, each worker through its own provider.
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
// and the worker's private jitter PRNG (calls to one worker are serialized,
// so no lock). req is the buffer its dedup and adopt requests are encoded
// into: phases never overlap and one returns only after its calls have, so
// each overwrites the last.
type workerConn struct {
	addr string
	framer
	rng *rand.Rand
	req []byte
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
	// Rejoined is how many replacement workers were re-admitted mid-run.
	Rejoined int
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
	for i, a := range addrs {
		// Worker i's retry jitter comes from its own PRNG seeded 1+i, so a
		// retry schedule replays exactly.
		cl.workers = append(cl.workers, &workerConn{
			addr: a,
			rng:  rand.New(rand.NewSource(1 + int64(i))),
		})
	}
	for i := range cl.workers {
		if err := cl.redial(i); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// Close drops every worker connection. Worker processes keep running and
// can serve future coordinators.
func (cl *Cluster) Close() error {
	for _, wc := range cl.workers {
		if wc.conn != nil {
			wc.conn.Close()
			wc.conn = nil
		}
	}
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
		// A fresh payload per response: the candidate keys decoded from an
		// expand response alias it until their level is adopted.
		rtyp, rpayload, err := wc.read(deadline, nil)
		if err != nil {
			lastErr = err
			wc.conn.Close()
			wc.conn = nil
			continue
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

// replicatedFanout sends each listed worker its payload concurrently and
// sorts the outcomes by failure mode: transport losses mark the worker
// dead in rs (the caller fails over or aborts on coverage), while
// worker-reported errors and malformed responses abort immediately —
// lowest worker index wins for determinism. Responses of the surviving
// workers are returned by index.
func (cl *Cluster) replicatedFanout(rs *replicaSet, typ byte, wantResp byte, payloads map[int][]byte) (map[int][]byte, error) {
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
	out := make(map[int][]byte)
	for w := range cl.workers {
		if errs[w] != nil {
			var we *WorkerError
			if errors.As(errs[w], &we) {
				return nil, errs[w] // permanent: state is broken, not lost
			}
			rs.markLost(w, errs[w])
			continue
		}
		if resps[w] != nil {
			out[w] = resps[w]
		}
	}
	return out, nil
}

// nodeRec is the coordinator's record of one admitted configuration:
// enough to reconstruct schedules (parent links), drive the level loop and
// tell which workers hold it (the fingerprint names its shard), without
// holding the configuration itself — configurations live on the owning
// workers, and are only materialized here when a visit callback needs them.
type nodeRec struct {
	parent int
	depth  int
	via    model.Event
	hash   uint64
}

// scheduleTo reads the schedule from the root to node i off the parent
// links.
func scheduleTo(nodes []nodeRec, i int) model.Schedule {
	sigma := make(model.Schedule, nodes[i].depth)
	for k := len(sigma) - 1; k >= 0; k, i = k-1, nodes[i].parent {
		sigma[k] = nodes[i].via
	}
	return sigma
}

// expandPhase collects one chunk's candidates — the level's nodes with a
// global index in [ch.lo, hi): every shard is expanded by its current
// primary, and when a primary is lost mid-phase its pending shards are
// re-issued to the next live replica — expansion is pure on the workers, so
// the promoted standby recomputes the identical candidate set from its
// replicated frontier. The loop ends when every shard has answered, or a
// shard runs out of live replicas.
func (cl *Cluster) expandPhase(rs *replicaSet, ch chunkID, hi int) ([]candidate, error) {
	done := make([]bool, rs.shards)
	var all []candidate
	for {
		assign := make(map[int][]int)
		for s := 0; s < rs.shards; s++ {
			if done[s] {
				continue
			}
			w, ok := rs.primary(s)
			if !ok {
				return nil, rs.lostShard(s)
			}
			assign[w] = append(assign[w], s)
		}
		if len(assign) == 0 {
			return all, nil
		}
		payloads := make(map[int][]byte, len(assign))
		for w, ss := range assign {
			payloads[w] = (&expandReq{Level: ch.level, Lo: ch.lo, Hi: hi, Shards: ss}).encode()
		}
		resps, err := cl.replicatedFanout(rs, frameExpand, frameExpandResp, payloads)
		if err != nil {
			return nil, err
		}
		for w, resp := range resps {
			lv, cands, err := decodeCandidates(resp)
			if err != nil {
				return nil, &WorkerError{Worker: w, Addr: cl.workers[w].addr, Msg: fmt.Sprintf("malformed expand response: %v", err)}
			}
			if lv != ch.level {
				return nil, fmt.Errorf("distexplore: worker %d answered expand for level %d, want %d", w, lv, ch.level)
			}
			all = append(all, cands...)
			for _, s := range assign[w] {
				done[s] = true
			}
		}
		// Workers that failed were marked lost; their shards are still
		// pending and the next iteration re-assigns them to standbys.
	}
}

// mergeOrder puts one chunk's candidates in global merge order — sorted by
// (parent node index, successor index within the parent's canonical
// expansion), which is precisely the order in which the sequential engine
// would consider them — and keeps only the first occurrence of each key:
// dedup would call every later one seen, whatever it says of the first.
// Per-shard groups preserve this order, so "first fresh in the group" equals
// "first fresh globally" per configuration (a key's candidates all land in
// one shard).
func mergeOrder(all []candidate) []candidate {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Parent != all[j].Parent {
			return all[i].Parent < all[j].Parent
		}
		return all[i].SuccIdx < all[j].SuccIdx
	})
	first := make(map[uint64]int, len(all))
	kept := all[:0]
	for _, c := range all {
		if firstOccurrence(first, kept, c.wireKey) {
			kept = append(kept, c)
		}
	}
	return kept
}

// dedupPhase routes one chunk's candidates (in merge order) to their
// shards, sends each shard's identities to every live replica, and settles
// freshness from the primary's answer; it returns the fresh candidates,
// still in merge order. Replicas apply identical batches in identical
// order, so their answers must agree — a divergence is reported as
// corruption, not silently resolved. Lost workers are tolerated as long as
// each candidate-bearing shard keeps one live replica whose answer arrived.
func (cl *Cluster) dedupPhase(rs *replicaSet, ch chunkID, all []candidate) ([]candidate, error) {
	byShard := make([][]int, rs.shards) // positions in all
	groups := make([]shardGroup, rs.shards)
	for i, c := range all {
		s := ownerShard(c.Hash, rs.shards)
		byShard[s] = append(byShard[s], i)
		groups[s] = shardGroup{Shard: s, Keys: append(groups[s].Keys, c.wireKey)}
	}
	payloads := make(map[int][]byte)
	for w := 0; w < rs.workers; w++ {
		if !rs.live(w) {
			continue
		}
		var mine []shardGroup
		for s, g := range groups {
			if len(g.Keys) > 0 && rs.replicates(w, s) {
				mine = append(mine, g)
			}
		}
		if len(mine) > 0 {
			wc := cl.workers[w]
			wc.req = appendDedupReq(wc.req[:0], ch.level, ch.lo, mine)
			payloads[w] = wc.req
		}
	}
	resps, err := cl.replicatedFanout(rs, frameDedup, frameDedupResp, payloads)
	if err != nil {
		return nil, err
	}
	freshBy := make(map[int]map[int][]uint64, len(resps))
	for w, resp := range resps {
		lv, lo, answers, err := decodeDedupResp(resp)
		if err != nil {
			return nil, &WorkerError{Worker: w, Addr: cl.workers[w].addr, Msg: fmt.Sprintf("malformed dedup response: %v", err)}
		}
		if (chunkID{lv, lo}) != ch {
			return nil, fmt.Errorf("distexplore: worker %d answered dedup for level %d chunk %d, want level %d chunk %d", w, lv, lo, ch.level, ch.lo)
		}
		m := make(map[int][]uint64, len(answers))
		for _, g := range answers {
			m[g.Shard] = g.Fresh
		}
		freshBy[w] = m
	}

	isFresh := make([]bool, len(all))
	for s := 0; s < rs.shards; s++ {
		if len(byShard[s]) == 0 {
			continue
		}
		chosen := []uint64(nil)
		chosenW := -1
		for _, w := range rs.replicasOf(s) {
			if !rs.live(w) {
				continue
			}
			f, ok := freshBy[w][s]
			if !ok {
				return nil, fmt.Errorf("distexplore: worker %d omitted shard %d from its dedup answer", w, s)
			}
			if chosenW < 0 {
				chosen, chosenW = f, w
				continue
			}
			if !slices.Equal(chosen, f) {
				return nil, fmt.Errorf(
					"distexplore: replica divergence on shard %d: workers %d and %d disagree on freshness (corrupted replica state)",
					s, chosenW, w)
			}
		}
		if chosenW < 0 {
			return nil, rs.lostShard(s)
		}
		for _, i := range chosen {
			if i >= uint64(len(byShard[s])) {
				return nil, fmt.Errorf("distexplore: worker %d dedup index %d out of range for shard %d", chosenW, i, s)
			}
			isFresh[byShard[s][i]] = true
		}
	}
	fresh := all[:0]
	for i, c := range all {
		if isFresh[i] {
			fresh = append(fresh, c)
		}
	}
	return fresh, nil
}

// adoptRequest encodes worker w's share of one level's adopt batch into its
// request buffer: the nodes whose shards it replicates, each with its parent's
// index and the event from it, and — once per distinct parent, which is a
// comparison with the last one listed because nodes in admission order have
// non-decreasing parents — the root schedule of every parent w does not
// hold. Which those are the coordinator reads off the parent's fingerprint:
// a worker holds exactly the nodes of the shards it replicates. It returns
// nil when w replicates none of the nodes' shards.
func (cl *Cluster) adoptRequest(rs *replicaSet, w, level int, nodes []nodeRec, adopts []adoptNode) []byte {
	var mine []adoptNode
	var foreign []foreignParent
	for _, nd := range adopts {
		if !rs.replicates(w, ownerShard(nd.Hash, rs.shards)) {
			continue
		}
		mine = append(mine, nd)
		if nd.Depth == 0 || rs.replicates(w, ownerShard(nodes[nd.Parent].hash, rs.shards)) {
			continue
		}
		if len(foreign) == 0 || foreign[len(foreign)-1].Index != nd.Parent {
			foreign = append(foreign, foreignParent{Index: nd.Parent, Schedule: scheduleTo(nodes, int(nd.Parent))})
		}
	}
	if len(mine) == 0 {
		return nil
	}
	wc := cl.workers[w]
	wc.req = appendAdoptReq(wc.req[:0], level, foreign, mine)
	return wc.req
}

// adoptPhase hands one level's admitted nodes to every live replica of
// their shards. A worker lost during adoption is tolerated as long as each
// adopted shard keeps a live replica (which, having stayed live, has
// acknowledged its batch).
func (cl *Cluster) adoptPhase(rs *replicaSet, level int, nodes []nodeRec, adopts []adoptNode) error {
	if len(adopts) == 0 {
		return nil
	}
	touched := make(map[int]bool)
	for _, nd := range adopts {
		touched[ownerShard(nd.Hash, rs.shards)] = true
	}
	payloads := make(map[int][]byte)
	for w := 0; w < rs.workers; w++ {
		if !rs.live(w) {
			continue
		}
		if p := cl.adoptRequest(rs, w, level, nodes, adopts); p != nil {
			payloads[w] = p
		}
	}
	if _, err := cl.replicatedFanout(rs, frameAdopt, frameOK, payloads); err != nil {
		return err
	}
	for s := range touched {
		if _, ok := rs.primary(s); !ok {
			return rs.lostShard(s)
		}
	}
	return nil
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
	eopt := t.Options.Normalized()
	W := len(cl.workers)
	shards := t.Shards
	if shards <= 0 {
		shards = W
	}
	replicas := t.Replicas
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > W {
		replicas = W
	}
	rs := newReplicaSet(shards, W, replicas)
	cl.interrupted.Store(false)
	cl.stats = RunStats{ResumedLevel: -1}
	if t.Checkpoints != nil {
		rs.ckDesc = fmt.Sprintf("no checkpoint written yet in %s", t.Checkpoints.Dir())
	} else {
		rs.ckDesc = "checkpointing disabled"
	}

	pr, err := RegistryProvider(t.Protocol, t.N)
	if err != nil {
		return false, 0, err
	}
	root, err := model.Initial(pr, t.Inputs)
	if err != nil {
		return false, 0, err
	}
	if len(t.Prefix) > 0 {
		if root, err = model.ApplySchedule(pr, root, t.Prefix); err != nil {
			return false, 0, fmt.Errorf("distexplore: applying root prefix: %w", err)
		}
	}

	// Phase 0: install the job on every worker. Init failures are fatal
	// even with replication — a worker that never received the job holds
	// no state to fail over from, and starting a run against a cluster
	// that is already degraded would hide real deployment problems. A
	// worker that speaks another wire version fails here too.
	initWorker := func(w int) error {
		req := initReq{
			Protocol: t.Protocol, N: t.N, Inputs: t.Inputs, Prefix: t.Prefix,
			Avoid: t.Avoid, Shards: shards, WorkerCount: W, WorkerIndex: w,
			Replicas: replicas,
		}
		rtyp, ack, err := cl.call(w, frameInit, req.encode())
		if err == nil && rtyp != frameOK {
			err = fmt.Errorf("distexplore: worker %d: unexpected response frame 0x%02x", w, rtyp)
		}
		if err == nil {
			if verr := checkInitAck(ack); verr != nil {
				err = &WorkerError{Worker: w, Addr: cl.workers[w].addr, Msg: verr.Error()}
			}
		}
		return err
	}
	if err = cl.fanout(initWorker); err != nil {
		return false, 0, err
	}
	// Workers now hold state; tear it down on every exit path.
	defer cl.shutdown(rs)

	led := explore.NewLedger(eopt)
	nodes := []nodeRec{{parent: -1, depth: 0, hash: root.Hash()}}
	// Configurations are materialized at the coordinator whenever the run
	// itself consumes them: visit callbacks and rejoin backfills (which
	// replay admitted state to replacement workers). Checkpoint snapshots
	// also need them, but only on the write-behind goroutine — when nothing
	// else wants configs, the writer derives its own copy off the critical
	// path (see wcfgs below) and the coordinator stays as lean as an
	// uncheckpointed run.
	needCfgs := visit != nil || cl.opt.RejoinWait > 0
	var cfgs []*model.Config
	if needCfgs {
		cfgs = []*model.Config{root}
	}
	// wcfgs is the write-behind goroutine's private config chain, extended
	// lazily inside save closures (which run strictly sequentially). Only
	// initialization happens on this goroutine, ordered before any enqueue
	// by the channel send.
	wcfgs := []*model.Config{root}

	pathOf := func(i int) func() model.Schedule {
		return func() model.Schedule { return scheduleTo(nodes, i) }
	}

	// adoptedLevels walks the admitted node table the way the run adopted
	// it: one batch per level, in admission order, depth-capped levels
	// skipped because the run never adopted them. from is the config table
	// to take identities from.
	adoptedLevels := func(from []*model.Config, send func(depth int, adopts []adoptNode) error) error {
		for lo := 0; lo < len(nodes); {
			hi, d := lo, nodes[lo].depth
			for hi < len(nodes) && nodes[hi].depth == d {
				hi++
			}
			if !eopt.DepthCapped(d) {
				adopts := make([]adoptNode, 0, hi-lo)
				for i := lo; i < hi; i++ {
					adopts = append(adopts, adoptNode{
						Index: uint64(i), Depth: uint64(d), wireKey: identityOf(from[i]),
						Parent: uint64(max(nodes[i].parent, 0)), Via: nodes[i].via,
					})
				}
				if err := send(d, adopts); err != nil {
					return err
				}
			}
			lo = hi
		}
		return nil
	}

	// backfillWorker replays the admitted node table into one freshly
	// re-initialized replacement worker: every level's nodes for the shards
	// it replicates, re-adopted in admission order with the frame the level
	// loop sends. Adoption interns each key into the worker's visited slice
	// and rebuilds its frontier, so after the backfill the replacement holds
	// exactly the state a live replica carries at this chunk boundary — the
	// nodes earlier chunks of the running level admitted included, which the
	// level's own adopt phase then finds already applied (adoption is
	// idempotent per node).
	backfillWorker := func(w int) error {
		return adoptedLevels(cfgs, func(d int, adopts []adoptNode) error {
			req := cl.adoptRequest(rs, w, d, nodes, adopts)
			if req == nil {
				return nil
			}
			return cl.expectOK(w, frameAdopt, req)
		})
	}

	// rejoinShard waits up to RejoinWait for a replacement process to
	// answer on a dead replica's address, dialing every RetryBackoff, then
	// re-initializes and backfills it. Reviving is safe precisely because the replacement is rebuilt
	// from scratch: frameInit discards whatever stale state the address
	// held, and the backfill re-derives live-replica state from the
	// coordinator's own admitted table.
	rejoinShard := func(shard int) bool {
		deadline := time.Now().Add(cl.opt.RejoinWait)
		for {
			for _, w := range rs.replicasOf(shard) {
				if rs.live(w) {
					continue
				}
				if cl.redial(w) != nil {
					continue
				}
				if initWorker(w) != nil || backfillWorker(w) != nil {
					continue
				}
				rs.revive(w)
				cl.stats.Rejoined++
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(cl.opt.RetryBackoff)
		}
	}

	// withRejoin runs one RPC phase, converting a shard-coverage loss into
	// a bounded wait for a replacement worker when rejoin is enabled. The
	// phase retry is safe: expansion is pure, and the idempotency guards on
	// surviving workers answer a retried dedup chunk from cache and skip
	// the nodes of a retried adopt they already hold.
	withRejoin := func(phase func() error) error {
		for {
			perr := phase()
			if perr == nil || cl.opt.RejoinWait <= 0 {
				return perr
			}
			var sl *shardLostError
			if !errors.As(perr, &sl) {
				return perr
			}
			if !rejoinShard(sl.shard) {
				return fmt.Errorf("%w; waited %v for a replacement worker to rejoin, none arrived",
					perr, cl.opt.RejoinWait)
			}
		}
	}

	// Checkpoint identity: the problem plus bounds, not the cluster layout —
	// results are byte-identical across layouts, so a checkpoint taken on
	// one cluster may resume on another.
	var ckKey atlasstore.RunKey
	var ckw *ckWriter
	if t.Checkpoints != nil {
		ckKey = atlasstore.RunKey{
			Protocol: t.Protocol, N: t.N, RootKey: root.KeyBytes(),
			MaxConfigs: eopt.MaxConfigs, MaxDepth: eopt.MaxDepth,
		}
		if t.Avoid != nil {
			ckKey.Avoid = t.Avoid.Key()
		}
		// Boundary writes run on a background goroutine so the encode and
		// fsync overlap the next level's RPC phases instead of stalling
		// them. This deferred close drains the queue before Explore
		// returns on ANY path, so every enqueued boundary is durable by
		// the time the caller observes the result — including the error
		// paths a resume will later recover from.
		ckw = newCkWriter()
		defer ckw.close()
	}

	start, end := 0, 1
	resumed := false
	if t.Resume && t.Checkpoints != nil {
		if ck := t.Checkpoints.Load(ckKey); ck != nil {
			b, rerr := explore.RestoreAtlasBuilder(pr, root, ck.Snap)
			if rerr != nil {
				// Replay-level corruption: drop the checkpoint and fall
				// through to a fresh start.
				t.Checkpoints.Discard(ckKey, rerr)
			} else {
				wcfgs = b.Configs()
				if needCfgs {
					cfgs = wcfgs
				}
				nodes = make([]nodeRec, len(wcfgs))
				for i := range nodes {
					nodes[i] = nodeRec{
						parent: int(ck.Snap.Parent[i]),
						depth:  int(ck.Snap.Depth[i]),
						via:    ck.Snap.ParentVia[i],
						hash:   wcfgs[i].Hash(),
					}
				}
				led.Count = len(nodes)
				led.Truncated = ck.Truncated
				start, end = ck.Start, len(nodes)
				cl.stats.ResumedNodes = len(nodes)
				cl.stats.ResumedLevel = nodes[start].depth
				cl.stats.ExpandedNodes = ck.Expanded
				rs.ckDesc = fmt.Sprintf("last-good checkpoint: level %d in %s",
					nodes[start].depth, t.Checkpoints.Dir())
				resumed = true
			}
		}
	}

	if resumed {
		// Backfill every worker with the restored admitted state — the
		// same per-level adoption the original run performed. Skipped
		// entirely when the budget is sealed: no expansion will ever run
		// again, so no worker needs state.
		if !led.Sealed() {
			// wcfgs holds the restored config table; safe to read here
			// because nothing has been enqueued to the write-behind yet
			// (its first job comes from the level loop below).
			aerr := adoptedLevels(wcfgs, func(d int, adopts []adoptNode) error {
				return cl.adoptPhase(rs, d, nodes, adopts)
			})
			if aerr != nil {
				return false, 0, aerr
			}
		}
		// Replay the completed prefix's visits so callers observe the same
		// stream an uninterrupted run would produce (visit callbacks must
		// be deterministic for resume to be transparent).
		if visit != nil {
			for i := 0; i < start; i++ {
				if visit(cfgs[i], nodes[i].depth, pathOf(i)) {
					ckw.discard()
					t.Checkpoints.Clear(ckKey) // deliberate end; nothing to resume
					return false, len(nodes), nil
				}
			}
		}
	} else {
		// Adopt the root into every replica of its owning shard so level 0
		// has a frontier wherever it may be needed.
		err = cl.adoptPhase(rs, 0, nodes, []adoptNode{{wireKey: identityOf(root)}})
		if err != nil {
			return false, 0, err
		}
	}

	// Level loop. Levels are contiguous index ranges, exactly as in the
	// in-process parallel engine. A level is walked in chunks of parent
	// indices [lo, hi), each sized from the ledger by the rule core.walk
	// uses (explore.SpecChunk) and each expanded, merged in canonical
	// (parent index, successor index) order, deduped and admitted before the
	// next is sized — so once the ledger seals, nothing further is expanded,
	// keyed or shipped. Adoption stays one phase per level.
	for ; start < end; start, end = end, len(nodes) {
		if cl.interrupted.Load() {
			// The last boundary checkpoint (if any) stays on disk: an
			// interrupted run is resumable by construction.
			return false, start, ErrInterrupted
		}
		level := nodes[start].depth
		rs.level = level

		// Durable cut: every level before this one is fully expanded,
		// deduped, and adopted; nothing of this level is expanded yet.
		// Enqueued before the level runs and drained before Explore
		// returns, so a crash anywhere inside the level restarts from this
		// boundary. The snapshot captures frozen slice prefixes: the node
		// table and config list are append-only, so the background encode
		// reads them race-free while this level grows the tail.
		if t.Checkpoints != nil && start > 0 {
			ckNodes := nodes[:end:end]
			var ckCfgs []*model.Config
			if needCfgs {
				ckCfgs = cfgs[:end:end]
			}
			ck := &atlasstore.RunCheckpoint{
				Start:     start,
				Truncated: led.Truncated,
				Expanded:  cl.stats.ExpandedNodes,
			}
			ckw.enqueue(func() {
				if ckCfgs == nil {
					// Derive the missing configs here, off the critical
					// path: replay each admitted node's edge from its
					// parent. The chain persists across boundaries, so
					// the whole run pays one MustApply per node total.
					for i := len(wcfgs); i < len(ckNodes); i++ {
						wcfgs = append(wcfgs, model.MustApply(pr, wcfgs[ckNodes[i].parent], ckNodes[i].via))
					}
					ckCfgs = wcfgs[:len(ckNodes)]
				}
				ck.Snap = checkpointSnapshot(ckNodes, ckCfgs)
				t.Checkpoints.Save(ckKey, ck)
			})
			cl.stats.Checkpoints++
			rs.ckDesc = fmt.Sprintf("last-good checkpoint: level %d in %s", level, t.Checkpoints.Dir())
			if t.CheckpointHook != nil {
				ckw.flush() // the hook may crash the process; the boundary must be on disk first
				if herr := t.CheckpointHook(level); herr != nil {
					return false, 0, fmt.Errorf("distexplore: checkpoint hook at level %d: %w", level, herr)
				}
			}
		}

		var adopts []adoptNode
		for lo, hi := start, start; lo < end; lo = hi {
			// Phase 1+2: expand the chunk and dedup its candidates, skipped
			// when no node of this level may grow the frontier (sealed
			// budget, or the whole level is depth-capped — level equals
			// depth in breadth-first order, so the cap is uniform across
			// the level); the rest of the level is then only visited.
			hi = end
			var fresh []candidate
			if !led.Sealed() && !eopt.DepthCapped(level) {
				ch := chunkID{level, lo}
				hi = lo + explore.SpecChunk(end-lo, led.MaxConfigs-led.Count, lo, led.Count, max(rs.liveCount(), 1))
				var all []candidate
				if perr := withRejoin(func() error {
					var e error
					all, e = cl.expandPhase(rs, ch, hi)
					return e
				}); perr != nil {
					return false, 0, perr
				}
				cl.stats.ExpandedNodes += hi - lo
				cl.stats.LiveExpanded += hi - lo
				all = mergeOrder(all)
				if perr := withRejoin(func() error {
					var e error
					fresh, e = cl.dedupPhase(rs, ch, all)
					return e
				}); perr != nil {
					return false, 0, perr
				}
			}

			// Visit and admit, interleaved per node exactly like the
			// in-process engines: node i is visited, then its fresh
			// successors are admitted, so an early-stopping visit observes
			// the same count.
			fi := 0
			for i := lo; i < hi; i++ {
				if visit != nil && visit(cfgs[i], nodes[i].depth, pathOf(i)) {
					if t.Checkpoints != nil {
						ckw.discard()
						t.Checkpoints.Clear(ckKey) // deliberate end; nothing to resume
					}
					return false, len(nodes), nil
				}
				if !led.ShouldExpand(nodes[i].depth) {
					continue
				}
				for fi < len(fresh) && fresh[fi].Parent < uint64(i) {
					fi++ // defensive; candidates of visited parents are behind us
				}
				for ; fi < len(fresh) && fresh[fi].Parent == uint64(i); fi++ {
					c := fresh[fi]
					if !led.Admit() {
						continue
					}
					nodes = append(nodes, nodeRec{parent: i, depth: level + 1, via: c.Via, hash: c.Hash})
					if needCfgs {
						cfgs = append(cfgs, model.MustApply(pr, cfgs[i], c.Via))
					}
					adopts = append(adopts, adoptNode{
						Index: uint64(len(nodes) - 1), Depth: uint64(level + 1), wireKey: c.wireKey,
						Parent: uint64(i), Via: c.Via,
					})
				}
			}
		}

		// Phase 3: hand the admitted nodes to their owning shards — unless
		// they can never be expanded (sealed budget, or the next level sits
		// at the depth cap), in which case no worker needs them.
		if len(adopts) > 0 && !led.Sealed() && !eopt.DepthCapped(level+1) {
			if perr := withRejoin(func() error {
				return cl.adoptPhase(rs, level+1, nodes, adopts)
			}); perr != nil {
				return false, 0, perr
			}
		}
	}
	if t.Checkpoints != nil {
		ckw.discard()
		t.Checkpoints.Clear(ckKey) // finished runs have nothing to resume
	}
	return led.Complete(), len(nodes), nil
}

// ckWriter is the boundary-checkpoint write-behind. Saves run on one
// background goroutine with two cost bounds that never weaken what a fence
// observes:
//
//   - Latest-wins coalescing: every boundary targets the same keyed file,
//     so when writes queue up only the newest pending boundary is written
//     and the superseded ones are dropped.
//   - Time throttling: between fences, at most one physical write per
//     ckWriteInterval; the newest boundary stays pending in memory. A
//     crash with no fence can therefore lose up to the interval of
//     progress — the resume just restarts one boundary earlier.
//
// The durable file after any fence is byte-identical to what synchronous
// per-boundary writes would leave. flush() is that fence, used wherever
// durability becomes observable: before a CheckpointHook (which may kill
// the process) and via close() before Explore returns — so every error a
// resume can recover from leaves the newest boundary on disk. discard()
// is the fence for deliberate ends: it drops the pending boundary instead
// of writing it, because the caller is about to Clear the file anyway.
type ckItem struct {
	save    func()
	fence   chan struct{}
	discard bool
}

type ckWriter struct {
	jobs chan ckItem
	done chan struct{}
}

const ckWriteInterval = 100 * time.Millisecond

func newCkWriter() *ckWriter {
	w := &ckWriter{jobs: make(chan ckItem, 16), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *ckWriter) run() {
	defer close(w.done)
	var pending func()
	lastWrite := time.Now() // runs shorter than the interval write only at fences
	write := func() {
		if pending != nil {
			pending()
			pending = nil
			lastWrite = time.Now()
		}
	}
	for it := range w.jobs {
		// The coordinator is single-threaded and flush blocks it, so a
		// drained batch is always saves in order with at most one fence,
		// last.
		batch := []ckItem{it}
	drain:
		for {
			select {
			case more, ok := <-w.jobs:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		fenced := false
		for _, b := range batch {
			if b.save != nil {
				pending = b.save // latest wins; older boundaries are superseded
			}
			if b.fence != nil {
				fenced = true
				if b.discard {
					pending = nil
				}
			}
		}
		if fenced || time.Since(lastWrite) >= ckWriteInterval {
			write()
		}
		for _, b := range batch {
			if b.fence != nil {
				close(b.fence)
			}
		}
	}
	write() // channel close is Explore returning: a final implicit fence
}

func (w *ckWriter) enqueue(save func()) { w.jobs <- ckItem{save: save} }

// flush blocks until the newest boundary enqueued before it is durable.
func (w *ckWriter) flush() {
	fence := make(chan struct{})
	w.jobs <- ckItem{fence: fence}
	<-fence
}

// discard blocks until the writer has dropped every pending boundary —
// the fence before Clear, where writing one last checkpoint just to
// delete it would be wasted work (and a save landing after Clear would
// resurrect the file).
func (w *ckWriter) discard() {
	fence := make(chan struct{})
	w.jobs <- ckItem{fence: fence, discard: true}
	<-fence
}

// close flushes and stops the writer goroutine; call exactly once.
func (w *ckWriter) close() {
	close(w.jobs)
	<-w.done
}

// checkpointSnapshot renders the coordinator's admitted node table as a
// truncated AtlasSnapshot (no successor edges): exactly the columns
// RestoreAtlasBuilder needs to replay and re-verify every configuration on
// resume.
func checkpointSnapshot(nodes []nodeRec, cfgs []*model.Config) *explore.AtlasSnapshot {
	n := len(nodes)
	snap := &explore.AtlasSnapshot{
		Depth:     make([]int32, n),
		Parent:    make([]int32, n),
		ParentVia: make([]model.Event, n),
		Keys:      make([][]byte, n),
		SuccStart: []int32{0},
	}
	for i, nd := range nodes {
		snap.Depth[i] = int32(nd.depth)
		snap.Parent[i] = int32(nd.parent)
		snap.ParentVia[i] = nd.via
		snap.Keys[i] = cfgs[i].KeyBytes()
	}
	return snap
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
