package distexplore

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// ProtocolProvider resolves a protocol name and process count to a live
// Protocol instance. Coordinator and workers must resolve identically —
// protocols are deterministic code, so shipping the *name* and
// reconstructing locally is what keeps configurations replayable from
// schedules on any cluster member.
type ProtocolProvider func(name string, n int) (model.Protocol, error)

// RegistryProvider resolves names against the built-in protocol registry
// (the same one the CLIs use).
func RegistryProvider(name string, n int) (model.Protocol, error) {
	factory, ok := protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("distexplore: unknown protocol %q", name)
	}
	return factory(n)
}

// ownedNode is one frontier configuration held by this worker: its global
// node index (assigned by the coordinator in deterministic merge order),
// the shard it belongs to, and the materialized configuration. With
// replication a worker holds frontier nodes both for shards it leads and
// shards it stands by for; the shard tag is what lets an expand request
// select exactly the shards this worker currently leads.
type ownedNode struct {
	idx   uint64
	shard int
	cfg   *model.Config
}

// job is the state of one exploration on a worker: the reconstructed
// protocol and root, the visited-set shards this worker replicates, and
// the frontier levels awaiting expansion. Jobs survive connection loss — a
// coordinator that re-dials resumes against the same state, and because
// expansion is pure and dedup/adopt are guarded by per-level caches, every
// RPC is idempotent under replay.
type job struct {
	pr          model.Protocol
	root        *model.Config
	skip        func(model.Event) bool
	shards      int
	workerCount int
	workerIndex int
	replicas    int

	// visited is this worker's slice of the global visited set: every
	// canonical key whose hash lands in a shard this worker replicates,
	// interned by fingerprint with full-key confirmation (fingerprint
	// collisions cost a byte comparison, never correctness). Keys arrive in
	// wire (string) form and are stored in the interner's per-shard arenas;
	// a dedup hit allocates nothing. Replicas of one shard apply the same
	// dedup batches in the same order, so their slices are identical at
	// every level boundary.
	visited *model.Interner

	// frontier holds adopted-but-unexpanded nodes, keyed by depth, in
	// ascending global index order. Levels strictly below the one being
	// served are globally finished and pruned lazily (pruneBelow).
	frontier map[int][]ownedNode

	// levelCache keeps the successor configurations this worker computed
	// during the current level's expansion and also replicates, so
	// adopting them back does not pay a schedule replay. cacheLevel tracks
	// which level the cache belongs to; a repeated expand at the same
	// level (failover hands a promoted standby extra shards) accumulates
	// into it rather than resetting.
	levelCache map[string]*model.Config
	cacheLevel int

	// Idempotency guards for the state-mutating RPCs: the level most
	// recently applied, with the dedup response cached. A replayed request
	// (the coordinator retried after a lost response) is answered from
	// cache instead of being re-applied. Expansion needs no guard — it is
	// pure over the frontier and recomputed on every call.
	lastDedup, lastAdopt int
	lastDedupResp        []byte

	// candScratch is the expand phase's candidate buffer, recycled across
	// levels (encodeLevelCandidates serializes it before the next reuse);
	// succScratch is the per-node successor buffer beside it.
	candScratch []candidate
	succScratch []explore.Successor
}

func (j *job) visitedAdd(hash uint64, key string) (fresh bool) {
	_, fresh = j.visited.InternKey(hash, key)
	return fresh
}

// replicatesShard reports whether this worker holds the shard, as primary
// or standby.
func (j *job) replicatesShard(s int) bool {
	return workerReplicatesShard(j.workerIndex, s, j.workerCount, j.replicas)
}

// replicatesHash reports whether a fingerprint lands in a shard this
// worker holds.
func (j *job) replicatesHash(h uint64) bool {
	return j.replicatesShard(ownerShard(h, j.shards))
}

// pruneBelow drops frontier levels strictly below the one being served:
// any request for level L proves every level < L is globally finished, so
// standby copies kept for failover are no longer needed.
func (j *job) pruneBelow(level int) {
	for l := range j.frontier {
		if l < level {
			delete(j.frontier, l)
		}
	}
}

// Worker serves one visited-set partition of the cluster: it holds the
// shards whose replica chains include its index, expands the shards it is
// asked to lead each level, dedups candidates routed to it, and adopts
// admitted nodes. One exploration job runs at a time; job state is shared
// across connections so a coordinator that loses a connection mid-run can
// re-dial and resume.
type Worker struct {
	provider ProtocolProvider

	mu  sync.Mutex
	job *job

	// draining is set by Drain: every connection finishes its in-flight
	// request, writes the response, and closes. handlers tracks live
	// connection goroutines so Wait can block until the last one is done;
	// conns tracks the connections themselves so Drain can unblock the
	// idle ones (parked in a read with no request in flight).
	draining atomic.Bool
	handlers sync.WaitGroup
	served   atomic.Int64
	connMu   sync.Mutex
	conns    map[*connState]struct{}
}

// connState pairs a coordinator connection with its in-flight flag, so
// Drain closes idle connections immediately but lets a connection that is
// mid-request answer before closing.
type connState struct {
	conn net.Conn
	mu   sync.Mutex
	busy bool
}

// NewWorker returns a worker resolving protocols through provider (nil
// means the built-in registry).
func NewWorker(provider ProtocolProvider) *Worker {
	if provider == nil {
		provider = RegistryProvider
	}
	return &Worker{provider: provider}
}

// workerWriteTimeout bounds response writes so a stalled coordinator
// cannot wedge a session goroutine forever.
const workerWriteTimeout = 2 * time.Minute

// Serve accepts coordinator connections until the listener is closed.
func (w *Worker) Serve(l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		cs := &connState{conn: conn}
		w.connMu.Lock()
		if w.conns == nil {
			w.conns = make(map[*connState]struct{})
		}
		w.conns[cs] = struct{}{}
		w.connMu.Unlock()
		w.handlers.Add(1)
		go w.handle(cs)
	}
}

// Drain begins a graceful shutdown: in-flight requests complete and are
// answered, then each connection closes; idle connections close at once.
// Combined with closing the listener, this lets a worker process exit
// cleanly mid-run — with replication the coordinator promotes standbys and
// the run continues; without it the run aborts with the usual lost-worker
// diagnostic.
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.connMu.Lock()
	defer w.connMu.Unlock()
	for cs := range w.conns {
		cs.mu.Lock()
		if !cs.busy {
			cs.conn.Close()
		}
		cs.mu.Unlock()
	}
}

// Wait blocks until every connection goroutine has finished (use after
// Drain plus closing the listener).
func (w *Worker) Wait() { w.handlers.Wait() }

// RequestsServed reports how many requests this worker has answered,
// for shutdown summaries.
func (w *Worker) RequestsServed() int64 { return w.served.Load() }

// handle runs one connection's request loop. Requests are processed
// strictly in order; the job state is locked per request because a
// re-dialed connection may take over from a dying one. The hello frame is
// handled here rather than in dispatch because the negotiated codec is
// per-connection state, not job state.
func (w *Worker) handle(cs *connState) {
	defer w.handlers.Done()
	defer func() {
		w.connMu.Lock()
		delete(w.conns, cs)
		w.connMu.Unlock()
		cs.conn.Close()
	}()
	compress := false
	for {
		typ, payload, err := readFrame(cs.conn, time.Time{})
		if err != nil {
			return // connection gone; the coordinator will re-dial or abort
		}
		cs.mu.Lock()
		cs.busy = true
		cs.mu.Unlock()
		var rtyp byte
		var rpayload []byte
		if typ == frameHello {
			rtyp, rpayload, compress = w.hello(payload)
		} else {
			rtyp, rpayload = w.dispatch(typ, payload)
		}
		w.served.Add(1)
		werr := writeFrame(cs.conn, time.Now().Add(workerWriteTimeout), rtyp, rpayload, compress)
		cs.mu.Lock()
		cs.busy = false
		cs.mu.Unlock()
		if werr != nil || w.draining.Load() {
			return
		}
	}
}

// hello answers a capability negotiation: accept flate when offered.
// Compression of *our* responses starts immediately; the coordinator
// starts compressing its requests only after reading this response, so
// neither side ever sends a compressed frame the peer has not agreed to.
func (w *Worker) hello(payload []byte) (byte, []byte, bool) {
	offered, err := decodeHello(payload)
	if err != nil {
		return frameErr, []byte(err.Error()), false
	}
	codec := chooseCodec(offered)
	return frameHelloResp, model.AppendString(nil, codec), codec == codecFlate
}

// dispatch applies one request to the worker state and returns the
// response frame. Failures are reported as frameErr, which the
// coordinator treats as permanent (it aborts the exploration with a
// diagnostic rather than retrying or failing over).
func (w *Worker) dispatch(typ byte, payload []byte) (byte, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fail := func(err error) (byte, []byte) { return frameErr, []byte(err.Error()) }
	switch typ {
	case frameInit:
		req, err := decodeInitReq(payload)
		if err != nil {
			return fail(err)
		}
		if err := w.initJob(req); err != nil {
			return fail(err)
		}
		return frameOK, nil

	case frameExpand:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: expand without an active job"))
		}
		level, shards, err := decodeLevelIndices(payload)
		if err != nil {
			return fail(err)
		}
		return frameExpandResp, w.expandLevel(level, shards)

	case frameDedup:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: dedup without an active job"))
		}
		level, groups, err := decodeShardGroups(payload)
		if err != nil {
			return fail(err)
		}
		if level == w.job.lastDedup {
			return frameDedupResp, w.job.lastDedupResp
		}
		return frameDedupResp, w.dedupLevel(level, groups)

	case frameAdopt:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: adopt without an active job"))
		}
		level, nodes, err := decodeAdoptReq(payload)
		if err != nil {
			return fail(err)
		}
		if level == w.job.lastAdopt {
			return frameOK, nil // replayed request; already applied
		}
		if err := w.adoptLevel(level, nodes); err != nil {
			return fail(err)
		}
		return frameOK, nil

	case frameShutdown:
		w.job = nil
		return frameOK, nil

	default:
		return fail(fmt.Errorf("distexplore: unknown frame type 0x%02x", typ))
	}
}

func (w *Worker) initJob(req *initReq) error {
	if req.Shards < 1 || req.WorkerCount < 1 || req.WorkerIndex < 0 || req.WorkerIndex >= req.WorkerCount {
		return fmt.Errorf("distexplore: invalid shard layout %d shards / worker %d of %d",
			req.Shards, req.WorkerIndex, req.WorkerCount)
	}
	if req.Replicas < 1 || req.Replicas > req.WorkerCount {
		return fmt.Errorf("distexplore: invalid replication factor %d for %d workers",
			req.Replicas, req.WorkerCount)
	}
	pr, err := w.provider(req.Protocol, req.N)
	if err != nil {
		return err
	}
	root, err := model.Initial(pr, req.Inputs)
	if err != nil {
		return err
	}
	if len(req.Prefix) > 0 {
		if root, err = model.ApplySchedule(pr, root, req.Prefix); err != nil {
			return fmt.Errorf("distexplore: applying root prefix: %w", err)
		}
	}
	w.job = &job{
		pr:          pr,
		root:        root,
		skip:        explore.AvoidFilter(req.Avoid),
		shards:      req.Shards,
		workerCount: req.WorkerCount,
		workerIndex: req.WorkerIndex,
		replicas:    req.Replicas,
		visited:     model.NewInterner(),
		frontier:    make(map[int][]ownedNode),
		cacheLevel:  -1,
		lastDedup:   -1,
		lastAdopt:   -1,
	}
	return nil
}

// expandLevel expands the frontier nodes of the requested shards at the
// given depth through the shared engine core, returning the encoded
// candidate list. Expansion is pure — the frontier is left in place and
// the same request (or a different shard subset after a failover
// promotion) can be recomputed at any time, which is what makes the expand
// phase retryable with no idempotency log. Successors landing in shards
// this worker replicates are cached so adoption does not replay their
// schedules.
func (w *Worker) expandLevel(level int, shards []uint64) []byte {
	j := w.job
	j.pruneBelow(level)
	if j.cacheLevel != level {
		if j.levelCache == nil {
			j.levelCache = make(map[string]*model.Config)
		} else {
			clear(j.levelCache) // keep the buckets, drop the entries
		}
		j.cacheLevel = level
	}
	want := make(map[int]bool, len(shards))
	for _, s := range shards {
		want[int(s)] = true
	}
	cands := j.candScratch[:0]
	for _, nd := range j.frontier[level] {
		if !want[nd.shard] {
			continue
		}
		j.succScratch = explore.AppendSuccessors(j.pr, nd.cfg, j.skip, j.succScratch)
		for si, s := range j.succScratch {
			h := s.Cfg.Hash()
			key := s.Cfg.Key()
			if j.replicatesHash(h) {
				j.levelCache[key] = s.Cfg
			}
			cands = append(cands, candidate{
				Parent:  nd.idx,
				SuccIdx: uint64(si),
				Hash:    h,
				Key:     key,
				Via:     s.Via,
			})
		}
	}
	j.candScratch = cands
	return encodeLevelCandidates(level, cands)
}

// dedupLevel filters per-shard candidate batches against this worker's
// visited slices, returning per shard the indices of first-seen
// configurations. The coordinator sends each shard's candidates pre-sorted
// in global merge order and sends the identical groups to every replica of
// the shard, so all replicas compute the same answer and "first seen here"
// coincides with "first seen by the sequential engine".
func (w *Worker) dedupLevel(level int, groups []shardGroup) []byte {
	j := w.job
	j.pruneBelow(level)
	out := make([]shardIndices, 0, len(groups))
	for _, g := range groups {
		fresh := shardIndices{Shard: g.Shard}
		for i, c := range g.Cands {
			if j.visitedAdd(c.Hash, c.Key) {
				fresh.Fresh = append(fresh.Fresh, uint64(i))
			}
		}
		out = append(out, fresh)
	}
	resp := encodeShardIndices(level, out)
	j.lastDedup, j.lastDedupResp = level, resp
	return resp
}

// adoptLevel materializes admitted nodes into this worker's frontier:
// from the expansion cache when the worker computed the configuration
// itself this level, otherwise by replaying the node's schedule from the
// root. Every materialization is verified against the transmitted
// canonical key, so a protocol-resolution or replay divergence surfaces as
// a loud error instead of silent state corruption.
func (w *Worker) adoptLevel(level int, nodes []adoptNode) error {
	j := w.job
	for _, nd := range nodes {
		shard := ownerShard(model.HashKey(nd.Key), j.shards)
		if !j.replicatesShard(shard) {
			return fmt.Errorf("distexplore: node %d routed to worker %d, which does not replicate shard %d", nd.Index, j.workerIndex, shard)
		}
		cfg, ok := j.levelCache[nd.Key]
		if !ok {
			var err error
			cfg, err = model.ApplySchedule(j.pr, j.root, nd.Schedule)
			if err != nil {
				return fmt.Errorf("distexplore: replaying schedule for node %d: %w", nd.Index, err)
			}
		}
		if cfg.Key() != nd.Key {
			return fmt.Errorf("distexplore: node %d integrity failure: replayed key diverges from transmitted key (protocol mismatch between cluster members?)", nd.Index)
		}
		j.visitedAdd(cfg.Hash(), nd.Key) // root adoption path; no-op after dedup
		j.frontier[int(nd.Depth)] = append(j.frontier[int(nd.Depth)], ownedNode{idx: nd.Index, shard: shard, cfg: cfg})
	}
	j.lastAdopt = level
	return nil
}
