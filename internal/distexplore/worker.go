package distexplore

import (
	"bytes"
	"cmp"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// ProtocolProvider resolves a protocol name and process count to a live
// Protocol instance. A worker's provider must resolve exactly as the
// coordinator's protocols.Resolve does —
// protocols are deterministic code, so shipping the *name* and
// reconstructing locally is what keeps configurations replayable from
// schedules on any cluster member.
type ProtocolProvider func(name string, n int) (model.Protocol, error)

// jobRoot resolves a job's protocol through provider and builds its root
// (model.Root). The coordinator and every worker derive the root this one
// way.
func jobRoot(provider ProtocolProvider, name string, n int, inputs model.Inputs, prefix model.Schedule) (model.Protocol, *model.Config, error) {
	pr, err := provider(name, n)
	if err != nil {
		return nil, nil, err
	}
	root, err := model.Root(pr, inputs, prefix)
	if err != nil {
		return nil, nil, err
	}
	return pr, root, nil
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
// expansion is pure and dedup/adopt are guarded (per chunk, per node), every
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
	// binary canonical key whose hash lands in a shard this worker
	// replicates, interned by fingerprint with full-key confirmation
	// (fingerprint collisions cost a byte comparison, never correctness).
	// Keys arrive as wireKeys and are copied into the interner's arena; a
	// dedup hit allocates nothing, and the expand phase probes it with a
	// drafted successor's key (LookupKey), before the successor is built.
	// Replicas of one shard apply the same dedup
	// batches in the same order, so their slices are identical at every
	// chunk boundary. The interner is the Worker's, emptied for this job.
	visited *model.Interner

	// frontier holds adopted-but-unexpanded nodes, keyed by depth, in
	// ascending global index order. Levels strictly below the one being
	// served are globally finished and pruned lazily (pruneBelow).
	frontier map[int][]ownedNode

	// levelCache keeps, by fingerprint, the successor configurations this
	// worker emitted during the current level's expansion and also
	// replicates — the only successors it builds — so adopting them back
	// does not pay a step (a fingerprint collision fails adopt's key
	// comparison and steps the parent).
	// cacheLevel tracks which level the cache belongs to; a later expand at
	// the same level (the next chunk, or a failover handing a promoted
	// standby extra shards) accumulates into it rather than resetting.
	levelCache map[uint64]*model.Config
	cacheLevel int

	// Idempotency guards for the state-mutating RPCs. A dedup is named by
	// its chunk — (level, lo), several per level — and the last one applied
	// is kept with its response, so a replayed request (the coordinator
	// retried after a lost response) is answered from cache instead of
	// being re-applied. Adopted nodes arrive in ascending global index, so
	// adoptNext — one past the highest index adopted — makes adoption
	// idempotent per node: a replayed request applies only what is new.
	// Expansion needs no guard — it is pure over the frontier and
	// recomputed on every call.
	lastDedup     chunkID
	lastDedupResp []byte
	adoptNext     uint64
}

// chunkID names one budget-sized slice of a level: the level and the global
// index its parent range starts at.
type chunkID struct{ level, lo int }

func (j *job) visitedAdd(k wireKey) (fresh bool) {
	_, fresh = j.visited.InternKey(k.Hash, k.Key)
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
	// mem is what every job works in, borrowed at the first frameInit and
	// given back by Wait after Drain; nil before and after.
	mem *workerMem

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

// workerMem is the memory a Worker's jobs work in and no job outlives.
// visited backs every job's visited set in turn: frameInit empties it (the
// tables and one arena chunk per shard stay) instead of building another.
// The scratch beside it outlives jobs the same way: what expandLevel works
// in, and the slices the dedup and adopt requests are decoded into.
type workerMem struct {
	visited *model.Interner
	exp     expandScratch
	req     reqScratch
}

// workerMems holds the memory of drained Workers for the next Worker in the
// process, so a worker started after another stopped (each distributed leg
// of conformance.Check starts three) is as warm as the one it replaces. A
// Worker borrows once, at its first job, and gives back in Wait after Drain.
var workerMems spares[workerMem]

// payloadBufs are one connection's request and response payload buffers.
type payloadBufs struct{ req, resp []byte }

// connPayloads holds the payload buffers of finished connections for the
// next connection's handler.
var connPayloads spares[payloadBufs]

// expandScratch is the memory expandLevel works in, recycled across calls:
// the events of the node being expanded, the draft of the step being taken,
// the keys of the call's candidates back to back, the candidates
// (appendCandidates serializes them before the next reuse), and emitted,
// which maps a fingerprint to the candidate that first carried it in the
// current call.
type expandScratch struct {
	evs     []model.Event
	dr      model.Drafter
	keys    []byte
	cands   []candidate
	emitted map[uint64]int
}

// reqScratch holds what dedup and adopt requests are decoded into, and the
// memory handling them needs: a decoded key aliases the request, which
// nothing keeps once dispatch returns; the dedup answer's index lists; the
// foreign parents replayed for one adopt request; and the buffer adoption
// encodes a materialized configuration's key into to compare it.
type reqScratch struct {
	groups   []shardGroup
	fresh    []shardIndices
	foreign  []foreignParent
	nodes    []adoptNode
	replayed []*model.Config
	key      []byte
}

// connState pairs a coordinator connection with its in-flight flag, so
// Drain closes idle connections immediately but lets a connection that is
// mid-request answer before closing.
type connState struct {
	framer
	mu   sync.Mutex
	busy bool
}

// NewWorker returns a worker resolving protocols through provider (nil
// means protocols.Resolve).
func NewWorker(provider ProtocolProvider) *Worker {
	if provider == nil {
		provider = protocols.Resolve
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
		cs := &connState{framer: framer{conn: conn}}
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
// diagnostic. The job and the memory jobs work in are kept until Wait.
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
// Drain plus closing the listener). After Drain it then drops the job —
// one a killed connection left behind too — and gives the memory jobs
// work in back to the process, for the next Worker (workerMem); a Worker
// served again starts with no job, so a coordinator that re-dials it is
// told it has none. Without Drain, Wait hands nothing back: the job stays
// for a coordinator that re-dials.
func (w *Worker) Wait() {
	w.handlers.Wait()
	if !w.draining.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endJob()
	if w.mem != nil {
		workerMems.put(w.mem)
		w.mem = nil
	}
}

// RequestsServed reports how many requests this worker has answered,
// for shutdown summaries.
func (w *Worker) RequestsServed() int64 { return w.served.Load() }

// handle runs one connection's request loop. Requests are processed
// strictly in order; the job state is locked per request because a
// re-dialed connection may take over from a dying one. The two payload
// buffers are per connection: req is overwritten by the next request —
// dispatch copies what the job keeps — and resp by the next expand response;
// they are the connection's, not the worker's, because the dying connection
// may still be writing its response while the re-dialed one dispatches. The
// connection borrows them from connPayloads and gives them back when it
// ends, after its last write.
func (w *Worker) handle(cs *connState) {
	defer w.handlers.Done()
	b := connPayloads.get()
	if b == nil {
		b = new(payloadBufs)
	}
	defer func() {
		w.connMu.Lock()
		delete(w.conns, cs)
		w.connMu.Unlock()
		cs.conn.Close()
		connPayloads.put(b)
	}()
	for {
		var typ byte
		var err error
		if typ, b.req, err = cs.read(time.Time{}, b.req); err != nil {
			return // connection gone; the coordinator will re-dial or abort
		}
		cs.mu.Lock()
		cs.busy = true
		cs.mu.Unlock()
		rtyp, rpayload := w.dispatch(typ, b.req, &b.resp)
		w.served.Add(1)
		werr := cs.write(time.Now().Add(workerWriteTimeout), rtyp, rpayload)
		cs.mu.Lock()
		cs.busy = false
		cs.mu.Unlock()
		if werr != nil || w.draining.Load() {
			return
		}
	}
}

// dispatch applies one request to the worker state and returns the
// response frame. Failures are reported as frameErr, which the
// coordinator treats as permanent (it aborts the exploration with a
// diagnostic rather than retrying or failing over). Nothing the job keeps
// aliases payload once dispatch returns: keys are copied into the visited
// arena and events decode their bodies into fresh strings. An expand
// response, the one large answer, is encoded into *resp, the calling
// connection's buffer.
func (w *Worker) dispatch(typ byte, payload []byte, resp *[]byte) (byte, []byte) {
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
		return frameOK, model.AppendUvarint(nil, wireVersion)

	case frameExpand:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: expand without an active job"))
		}
		req, err := decodeExpandReq(payload)
		if err != nil {
			return fail(err)
		}
		if *resp, err = w.expandLevel(req, (*resp)[:0]); err != nil {
			return fail(err)
		}
		return frameExpandResp, *resp

	case frameDedup:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: dedup without an active job"))
		}
		level, lo, groups, err := decodeDedupReq(payload, w.mem.req.groups)
		w.mem.req.groups = groups
		if err != nil {
			return fail(err)
		}
		if (chunkID{level, lo}) == w.job.lastDedup {
			return frameDedupResp, w.job.lastDedupResp
		}
		return frameDedupResp, w.dedupChunk(chunkID{level, lo}, groups)

	case frameAdopt:
		if w.job == nil {
			return fail(fmt.Errorf("distexplore: adopt without an active job"))
		}
		_, foreign, nodes, err := decodeAdoptReq(payload, w.mem.req.foreign, w.mem.req.nodes)
		w.mem.req.foreign, w.mem.req.nodes = foreign, nodes
		if err != nil {
			return fail(err)
		}
		if err := w.adoptNodes(foreign, nodes); err != nil {
			return fail(err)
		}
		return frameOK, nil

	case frameShutdown:
		w.endJob()
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
	pr, root, err := jobRoot(w.provider, req.Protocol, req.N, req.Inputs, req.Prefix)
	if err != nil {
		return err
	}
	w.endJob()
	if w.mem == nil {
		w.mem = workerMems.get()
		if w.mem == nil {
			w.mem = &workerMem{visited: model.NewInterner(), exp: expandScratch{emitted: make(map[uint64]int)}}
		}
	}
	w.mem.visited.Reset()
	w.job = &job{
		pr:          pr,
		root:        root,
		skip:        explore.AvoidFilter(req.Avoid),
		shards:      req.Shards,
		workerCount: req.WorkerCount,
		workerIndex: req.WorkerIndex,
		replicas:    req.Replicas,
		visited:     w.mem.visited,
		frontier:    make(map[int][]ownedNode),
		levelCache:  make(map[uint64]*model.Config),
		cacheLevel:  -1,
		lastDedup:   chunkID{level: -1},
	}
	return nil
}

// endJob drops the job and every reference the worker's scratch holds into
// its configurations — events point into their buffers — keeping the
// scratch's storage for the next job.
func (w *Worker) endJob() {
	w.job = nil
	if w.mem == nil {
		return
	}
	x := &w.mem.exp
	clear(x.evs[:cap(x.evs)])
	clear(x.cands[:cap(x.cands)])
	x.dr.Reset()
	clear(w.mem.req.replayed[:cap(w.mem.req.replayed)])
}

// expandLevel expands one chunk of a level — the frontier nodes of the
// requested shards with a global index in [Lo, Hi) — returning the encoded
// candidate list. Expansion is pure — the frontier is left in place and the
// same request (or a different shard subset after a failover promotion) can
// be recomputed at any time, which is what makes the expand phase retryable
// with no idempotency log.
//
// Every step is drafted (model.Drafter) and keyed from the draft, so a
// successor is built only when it is kept. Two kinds are dropped here,
// where they are born, because dedup would call them seen anyway: one whose
// key this same call already emitted (from a smaller (parent, successor)
// position, so the survivor is the one the merge order puts first), and one
// that lands in a shard this worker replicates and is already in its
// visited slice. Only this call's own emissions count for the first rule,
// never levelCache membership: an earlier call at this level — another
// chunk, or the shards this worker led before a failover handed it more —
// may have emitted the key from a larger parent index than a node expanded
// now. An emitted successor that lands in a replicated shard is built and
// cached so adoption does not step to it again; the rest are never built.
// Each (node, event) costs one Protocol.Step, as in the reference loop. The
// response is appended to resp.
func (w *Worker) expandLevel(req *expandReq, resp []byte) ([]byte, error) {
	j, x := w.job, &w.mem.exp
	j.pruneBelow(req.Level)
	if j.cacheLevel != req.Level {
		clear(j.levelCache) // keep the buckets, drop the entries
		j.cacheLevel = req.Level
	}
	want := make([]bool, j.shards)
	for _, s := range req.Shards {
		if s >= j.shards {
			return resp, fmt.Errorf("distexplore: expand names shard %d of %d", s, j.shards)
		}
		want[s] = true
	}
	clear(x.emitted)
	x.keys, x.cands = x.keys[:0], x.cands[:0]
	nodes := j.frontier[req.Level]
	first := sort.Search(len(nodes), func(i int) bool { return nodes[i].idx >= uint64(req.Lo) })
	for _, nd := range nodes[first:] {
		if nd.idx >= uint64(req.Hi) {
			break
		}
		if !want[nd.shard] {
			continue
		}
		x.evs = model.AppendEvents(x.evs[:0], nd.cfg)
		si := uint64(0) // the successor's position in the parent's canonical expansion
		for _, e := range x.evs {
			if j.skip != nil && j.skip(e) {
				continue
			}
			if d := x.dr.Draft(j.pr, nd.cfg, e); d != nil {
				x.offer(j, candidate{Parent: nd.idx, SuccIdx: si, Via: e}, d)
				si++
			}
			x.dr.Reset()
		}
	}
	return appendCandidates(resp, req.Level, x.cands), nil
}

// offer keys the drafted successor c and keeps it, unless one of
// expandLevel's two drop rules applies.
func (x *expandScratch) offer(j *job, c candidate, d *model.Draft) {
	k0 := len(x.keys)
	x.keys = d.AppendKey(x.keys)
	c.wireKey = wireKey{Hash: d.Hash(), Key: x.keys[k0:len(x.keys):len(x.keys)]}
	replicated := j.replicatesHash(c.Hash)
	if replicated {
		if _, seen := j.visited.LookupKey(c.Hash, c.Key); seen {
			x.keys = x.keys[:k0]
			return
		}
	}
	if !firstOccurrence(x.emitted, x.cands, c.wireKey) {
		x.keys = x.keys[:k0]
		return
	}
	x.cands = append(x.cands, c)
	if replicated {
		j.levelCache[c.Hash] = d.Build()
	}
}

// dedupChunk filters per-shard batches of candidate identities against this
// worker's visited slices, returning per shard the indices of first-seen
// configurations. The coordinator sends each shard's candidates pre-sorted
// in global merge order and sends the identical groups to every replica of
// the shard, so all replicas compute the same answer and "first seen here"
// coincides with "first seen by the sequential engine".
func (w *Worker) dedupChunk(id chunkID, groups []shardGroup) []byte {
	j := w.job
	j.pruneBelow(id.level)
	out := resize(w.mem.req.fresh, len(groups))
	w.mem.req.fresh = out
	for gi, g := range groups {
		fresh := shardIndices{Shard: g.Shard, Fresh: out[gi].Fresh[:0]}
		for i, k := range g.Keys {
			if j.visitedAdd(k) {
				fresh.Fresh = append(fresh.Fresh, uint64(i))
			}
		}
		out[gi] = fresh
	}
	resp := encodeDedupResp(id.level, id.lo, out)
	j.lastDedup, j.lastDedupResp = id, resp
	return resp
}

// adoptNodes materializes admitted nodes into this worker's frontier: from
// the expansion cache when the worker computed the configuration itself
// this level, otherwise by one step from the node's parent — found in the
// previous level's frontier when this worker replicates the parent's shard,
// and otherwise among the foreign parents shipped with the request, each
// replayed from the root at most once, on first use, and forgotten when the
// request ends. The previous level is still held: pruneBelow runs on
// requests for a level, and a level's children are adopted before anything
// of the next level is requested. Every materialization is verified against
// the transmitted identity, so a protocol-resolution or replay divergence
// surfaces as a loud error instead of silent state corruption, and a parent
// that is neither held nor shipped is an error, never a guess.
func (w *Worker) adoptNodes(foreign []foreignParent, nodes []adoptNode) error {
	j := w.job
	replayed := resize(w.mem.req.replayed, len(foreign))
	w.mem.req.replayed = replayed
	clear(replayed)
	// step materializes nd from where it came: the job root at depth 0,
	// otherwise its parent stepped by the transmitted event.
	step := func(nd adoptNode) (*model.Config, error) {
		if nd.Depth == 0 {
			return j.root, nil
		}
		var parent *model.Config
		held := j.frontier[int(nd.Depth)-1]
		if i, ok := sort.Find(len(held), func(i int) int { return cmp.Compare(nd.Parent, held[i].idx) }); ok {
			parent = held[i].cfg
		} else if i, ok := sort.Find(len(foreign), func(i int) int { return cmp.Compare(nd.Parent, foreign[i].Index) }); ok {
			if replayed[i] == nil {
				cfg, err := model.ApplySchedule(j.pr, j.root, foreign[i].Schedule)
				if err != nil {
					return nil, fmt.Errorf("distexplore: replaying schedule for node %d, parent of node %d: %w", nd.Parent, nd.Index, err)
				}
				replayed[i] = cfg
			}
			parent = replayed[i]
		} else {
			return nil, fmt.Errorf("distexplore: node %d: its parent, node %d, is neither in worker %d's level %d frontier nor shipped with the request",
				nd.Index, nd.Parent, j.workerIndex, nd.Depth-1)
		}
		cfg, err := model.Apply(j.pr, parent, nd.Via)
		if err != nil {
			return nil, fmt.Errorf("distexplore: node %d integrity failure: stepping its parent, node %d, by the transmitted event: %w", nd.Index, nd.Parent, err)
		}
		return cfg, nil
	}
	for _, nd := range nodes {
		if nd.Index < j.adoptNext {
			continue // replayed; applied once
		}
		shard := ownerShard(nd.Hash, j.shards)
		if !j.replicatesShard(shard) {
			return fmt.Errorf("distexplore: node %d routed to worker %d, which does not replicate shard %d", nd.Index, j.workerIndex, shard)
		}
		cfg := j.levelCache[nd.Hash]
		if cfg == nil || !w.keyIs(cfg, nd.Key) {
			var err error
			if cfg, err = step(nd); err != nil {
				return err
			}
			if !w.keyIs(cfg, nd.Key) {
				return fmt.Errorf("distexplore: node %d integrity failure: the key materialized from node %d diverges from the transmitted key (protocol mismatch between cluster members?)", nd.Index, nd.Parent)
			}
		}
		if cfg.Hash() != nd.Hash {
			return fmt.Errorf("distexplore: node %d integrity failure: transmitted fingerprint is not its key's", nd.Index)
		}
		j.visitedAdd(nd.wireKey) // root adoption path; no-op after dedup
		j.frontier[int(nd.Depth)] = append(j.frontier[int(nd.Depth)], ownedNode{idx: nd.Index, shard: shard, cfg: cfg})
		j.adoptNext = nd.Index + 1
	}
	return nil
}

// keyIs reports whether cfg's canonical key is key. The key is encoded into
// the worker's scratch, not cached on cfg: a configuration built from a
// draft carries none, and the frontier keeps configurations, not keys.
func (w *Worker) keyIs(cfg *model.Config, key []byte) bool {
	r := &w.mem.req
	r.key = cfg.AppendKey(r.key[:0])
	return bytes.Equal(r.key, key)
}
