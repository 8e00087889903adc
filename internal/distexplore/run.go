package distexplore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// run is one Cluster.Explore call: the state it owns and one method per
// phase — init, begin (restore or adopt the root), walkLevel (boundary
// checkpoint, then per chunk expand → merge → dedup → visit/admit, then
// adopt) and result. Checkpoint phases, the resume backfill among them, are
// in checkpoint.go.
type run struct {
	cl    *Cluster
	t     Task
	eopt  explore.Options
	visit explore.Visit
	pr    model.Protocol
	root  *model.Config
	rs    *replicaSet
	led   *explore.Ledger
	m     *runMem

	// The admitted node table: the tree columns of a truncated snapshot —
	// what a checkpoint saves and a resume restores; its key column stays
	// empty, keys are the writer's — beside each node's fingerprint, which
	// names its shard. cfgs is non-nil only when the run itself consumes
	// configurations (visits).
	nodes  explore.AtlasSnapshot
	hashes []uint64
	cfgs   []*model.Config

	// Checkpointing: the run's key, the write-behind, and the writer
	// goroutine's own config chain and key column, extended inside saves
	// and touched here only before the first save is enqueued.
	ckKey atlasstore.RunKey
	ckw   *ckWriter
	wcfgs []*model.Config
	wkeys [][]byte

	// The coverage-loss diagnostic's level and last good checkpoint.
	level  int
	ckDesc string

	// visiting is the node being visited, -1 between visits; path is the
	// one path func every visit gets, which reads it.
	visiting int
	path     func() model.Schedule
}

// runMem is the memory a run works in and no result outlives, which the
// Cluster hands from one run to the next: the node table's columns, the
// walking level's adopt records and the admitted keys they carry, and the
// slices of the expand, merge, dedup and adopt phases. Nothing outside the
// run reads it after Explore returns — a visit's path is valid only during
// its visit (explore.Visit) and the checkpoint write-behind drains first —
// so the next run overwrites it, on this Cluster or, through clusterMems,
// on the next.
type runMem struct {
	depth, parent []int32
	via           []model.Event
	hashes        []uint64
	cfgs          []*model.Config

	adopts []adoptNode
	keys   []byte // the admitted keys of adopts, back to back

	done     []bool   // expand: by shard, answered
	assign   [][]int  // expand: by worker, the shards it is asked for
	payloads [][]byte // by worker
	all      []candidate
	first    map[uint64]int // mergeOrder
	byShard  [][]int        // dedup: by shard, positions in all
	groups   []shardGroup   // dedup: by shard
	mine     []shardGroup   // dedup: one worker's groups
	answers  [][]shardIndices
	isFresh  []bool
	nodes    []adoptNode // adopt: one worker's nodes
	foreign  []foreignParent
	paths    model.Schedule // the foreign parents' schedules, back to back
	touched  []bool         // adopt: by shard
}

// clusterMem is everything a Cluster works in and outlives no run: the run
// memory and each worker's call buffers, by worker index.
type clusterMem struct {
	run   runMem
	calls []callBufs
}

// clusterMems holds the memory of closed Clusters for the next one, so a
// cluster dialled for one job — each distributed leg of conformance.Check,
// a replacement after a crash, a resume — starts as warm as a long-lived one
// instead of growing every buffer again. A Cluster borrows once, at its
// first run, and gives back in Close.
var clusterMems spares[clusterMem]

// borrow takes a clusterMem from clusterMems, or a new one, and hands its
// call buffers to the workers.
func (cl *Cluster) borrow() {
	cl.mem = clusterMems.get()
	if cl.mem == nil {
		cl.mem = &clusterMem{run: runMem{first: make(map[uint64]int)}}
	}
	for i := range min(len(cl.mem.calls), len(cl.workers)) {
		cl.workers[i].callBufs = cl.mem.calls[i]
	}
}

// giveBack collects the workers' call buffers into the Cluster's memory and
// hands it to clusterMems.
func (cl *Cluster) giveBack() {
	m := cl.mem
	if m == nil {
		return
	}
	m.calls = m.calls[:0]
	for _, wc := range cl.workers {
		m.calls = append(m.calls, wc.callBufs)
		wc.callBufs = callBufs{}
	}
	cl.mem = nil
	clusterMems.put(m)
}

// keepNodes bounds what runMem keeps: the columns of a run that admitted
// more nodes are left to the collector, so a long-lived cluster that once
// ran a huge job does not hold its table for every small one after it.
const keepNodes = 1 << 16

// errStopped is a visit callback's deliberate stop; result reports no error.
var errStopped = errors.New("distexplore: visit stopped the run")

// newRun resolves the task's protocol and root and returns a run holding
// just the root.
func (cl *Cluster) newRun(t Task, visit explore.Visit) (*run, error) {
	cl.interrupted.Store(false)
	cl.stats = RunStats{ResumedLevel: -1}
	pr, root, err := jobRoot(protocols.Resolve, t.Protocol, t.N, t.Inputs, t.Prefix)
	if err != nil {
		return nil, err
	}
	W := len(cl.workers)
	shards := t.Shards
	if shards <= 0 {
		shards = W
	}
	if cl.mem == nil {
		cl.borrow()
	}
	m := &cl.mem.run
	r := &run{
		cl: cl, t: t, eopt: t.Options.Normalized(), visit: visit, pr: pr, root: root,
		rs: newReplicaSet(shards, W, ReplicaCount(t.Replicas, W)),
		m:  m,
		nodes: explore.AtlasSnapshot{
			Depth: append(m.depth[:0], 0), Parent: append(m.parent[:0], -1), ParentVia: append(m.via[:0], model.Event{}),
			SuccStart: []int32{0}, // no successor edges: a truncated snapshot
		},
		hashes:   append(m.hashes[:0], root.Hash()),
		wcfgs:    []*model.Config{root},
		ckDesc:   "checkpointing disabled",
		visiting: -1,
	}
	r.led = explore.NewLedger(r.eopt)
	if visit != nil {
		r.cfgs = append(m.cfgs[:0], root)
		r.path = func() model.Schedule {
			if r.visiting < 0 {
				panic("distexplore: path called outside its visit")
			}
			return r.nodes.PathTo(r.visiting)
		}
	}
	if t.Checkpoints != nil {
		r.ckDesc = fmt.Sprintf("no checkpoint written yet in %s", t.Checkpoints.Dir())
	}
	return r, nil
}

// release hands the node table's columns to the Cluster for the next run,
// unless they outgrew keepNodes, with the configurations cleared so that
// the Cluster keeps no finished run's configurations alive.
func (r *run) release() {
	clear(r.cfgs[:cap(r.cfgs)])
	m := r.m
	m.depth, m.parent, m.via, m.hashes, m.cfgs = r.nodes.Depth, r.nodes.Parent, r.nodes.ParentVia, r.hashes, r.cfgs
	if cap(r.nodes.Depth) > keepNodes {
		m.depth, m.parent, m.via, m.hashes, m.cfgs = nil, nil, nil, nil, nil
	}
}

// initWorker installs the job on worker w. Init failures are fatal even
// with replication — a worker that never received the job holds no state to
// fail over from, and starting a run against a cluster that is already
// degraded would hide real deployment problems. A worker that speaks
// another wire version fails here too.
func (r *run) initWorker(w int) error {
	req := initReq{
		Protocol: r.t.Protocol, N: r.t.N, Inputs: r.t.Inputs, Prefix: r.t.Prefix,
		Avoid: r.t.Avoid, Shards: r.rs.shards, WorkerCount: r.rs.workers, WorkerIndex: w,
		Replicas: r.rs.replicas,
	}
	rtyp, ack, err := r.cl.call(w, frameInit, req.encode())
	if err == nil && rtyp != frameOK {
		err = fmt.Errorf("distexplore: worker %d: unexpected response frame 0x%02x", w, rtyp)
	}
	if err == nil {
		if verr := checkInitAck(ack); verr != nil {
			err = &WorkerError{Worker: w, Addr: r.cl.workers[w].addr, Msg: verr.Error()}
		}
	}
	return err
}

// begin returns the first pending level's first node, the workers holding
// what it expects: a restored table, or the root adopted into every replica
// of its shard.
func (r *run) begin() (start int, err error) {
	if r.ckw != nil && r.t.Resume {
		if start, ok := r.restore(); ok {
			return start, r.resume(start)
		}
	}
	return 0, r.adoptPhase(0, []adoptNode{{wireKey: identityOf(r.root)}})
}

// walkLevel runs the level [start, end) — levels are contiguous index
// ranges, as in the in-process engine — and returns where the next starts.
// Its chunks are each expanded, merged, deduped and admitted before the
// next is sized, so once the ledger seals nothing further is expanded,
// keyed or shipped. The admitted nodes are adopted once, at the end —
// unless they can never be expanded (sealed budget, or the next level sits
// at the depth cap), in which case no worker needs them.
func (r *run) walkLevel(start int) (next int, err error) {
	if r.cl.interrupted.Load() {
		// The last boundary checkpoint (if any) stays on disk: an
		// interrupted run is resumable by construction.
		return start, ErrInterrupted
	}
	end := r.nodes.Len()
	r.level = int(r.nodes.Depth[start])
	if err := r.boundary(start, end); err != nil {
		return start, err
	}
	adopts := r.m.adopts[:0]
	r.m.keys = r.m.keys[:0]
	for lo, hi := start, start; lo < end; lo = hi {
		var fresh []candidate
		if hi, fresh, err = r.expandChunk(lo, end); err == nil {
			adopts, err = r.admitChunk(lo, hi, fresh, adopts)
		}
		r.m.adopts = adopts
		if err != nil {
			return start, err
		}
	}
	if len(adopts) == 0 || r.led.Sealed() || r.eopt.DepthCapped(r.level+1) {
		return end, nil
	}
	return end, r.adoptPhase(r.level+1, adopts)
}

// expandChunk sizes the level's next chunk, parent indices [lo, hi), from
// the ledger by the rule core.walk uses (explore.SpecChunk), then expands,
// merges and dedups it and returns the fresh candidates in merge order.
// When no node of the level may grow the frontier — a sealed budget, or
// the level sits at the depth cap (level equals depth in breadth-first
// order, so the cap is uniform across it) — nothing is expanded and the
// chunk is the rest of the level, which is then only visited.
func (r *run) expandChunk(lo, end int) (hi int, fresh []candidate, err error) {
	if r.led.Sealed() || r.eopt.DepthCapped(r.level) {
		return end, nil, nil
	}
	ch := chunkID{r.level, lo}
	hi = lo + explore.SpecChunk(end-lo, r.led.MaxConfigs-r.led.Count, lo, r.led.Count, max(r.rs.liveCount(), 1))
	all, err := r.expandPhase(ch, hi)
	if err != nil {
		return hi, nil, err
	}
	r.cl.stats.ExpandedNodes += hi - lo
	r.cl.stats.LiveExpanded += hi - lo
	fresh, err = r.dedupPhase(ch, mergeOrder(all, r.m.first))
	return hi, fresh, err
}

// admitChunk visits the chunk's nodes and admits their fresh successors,
// interleaved per node exactly like the in-process engines — node i is
// visited, then its fresh successors are admitted — so an early-stopping
// visit observes the same count. It returns adopts with the admitted nodes
// appended.
func (r *run) admitChunk(lo, hi int, fresh []candidate, adopts []adoptNode) ([]adoptNode, error) {
	fi := 0
	for i := lo; i < hi; i++ {
		if r.visitNode(i) {
			return adopts, errStopped
		}
		if !r.led.ShouldExpand(int(r.nodes.Depth[i])) {
			continue
		}
		for fi < len(fresh) && fresh[fi].Parent < uint64(i) {
			fi++ // defensive; candidates of visited parents are behind us
		}
		for ; fi < len(fresh) && fresh[fi].Parent == uint64(i); fi++ {
			if r.led.Admit() {
				adopts = append(adopts, r.admit(i, fresh[fi]))
			}
		}
	}
	return adopts, nil
}

// admit appends candidate c, a fresh successor of node parent, to the node
// table and returns its adopt record, which carries a copy of c's key: c's
// aliases the response it was read from, which the next chunk overwrites.
func (r *run) admit(parent int, c candidate) adoptNode {
	m := r.m
	k0 := len(m.keys)
	m.keys = append(m.keys, c.Key...)
	c.Key = m.keys[k0:len(m.keys):len(m.keys)]
	i, depth := r.nodes.Len(), r.nodes.Depth[parent]+1
	r.nodes.Depth = append(r.nodes.Depth, depth)
	r.nodes.Parent = append(r.nodes.Parent, int32(parent))
	r.nodes.ParentVia = append(r.nodes.ParentVia, c.Via)
	r.hashes = append(r.hashes, c.Hash)
	if r.cfgs != nil {
		r.cfgs = append(r.cfgs, model.MustApply(r.pr, r.cfgs[parent], c.Via))
	}
	return adoptNode{Index: uint64(i), Depth: uint64(depth), wireKey: c.wireKey, Parent: uint64(parent), Via: c.Via}
}

// visitNode calls the visit callback on node i and reports whether it asked
// to stop. The path it hands the visit defers node i's schedule until asked
// for, and holds to explore.Visit's contract: it panics between visits and
// after the run, whose node table the Cluster's next run overwrites.
func (r *run) visitNode(i int) bool {
	if r.visit == nil {
		return false
	}
	r.visiting = i
	stop := r.visit(r.cfgs[i], int(r.nodes.Depth[i]), r.path)
	r.visiting = -1
	return stop
}

// result settles how the run ended. Completion and a visit's stop clear the
// checkpoint — nothing is left to resume; an interrupt keeps it and counts
// the nodes before the level it stopped at; any other error aborts.
func (r *run) result(start int, err error) (complete bool, visited int, _ error) {
	switch err {
	case nil, errStopped:
		r.clearCheckpoint()
		return err == nil && r.led.Complete(), r.nodes.Len(), nil
	case ErrInterrupted:
		return false, start, err
	}
	return false, 0, err
}

// expandPhase collects one chunk's candidates — the level's nodes with a
// global index in [ch.lo, hi): every shard is expanded by its current
// primary, and when a primary is lost mid-phase its pending shards are
// re-issued to the next live replica — expansion is pure on the workers, so
// the promoted standby recomputes the identical candidate set from its
// replicated frontier. The loop ends when every shard has answered, or a
// shard runs out of live replicas. The candidates' keys alias the workers'
// expand buffers (workerConn), which the next chunk reuses.
func (r *run) expandPhase(ch chunkID, hi int) ([]candidate, error) {
	rs, m := r.rs, r.m
	m.done = resize(m.done, rs.shards)
	clear(m.done)
	m.assign = resize(m.assign, rs.workers)
	m.payloads = resize(m.payloads, rs.workers)
	for _, wc := range r.cl.workers {
		wc.nexp = 0
	}
	m.all = m.all[:0]
	for {
		pending := false
		for w := range m.assign {
			m.assign[w] = m.assign[w][:0]
		}
		for s := 0; s < rs.shards; s++ {
			if m.done[s] {
				continue
			}
			w, ok := rs.primary(s)
			if !ok {
				return nil, r.lostShard(s)
			}
			m.assign[w] = append(m.assign[w], s)
			pending = true
		}
		if !pending {
			return m.all, nil
		}
		for w, ss := range m.assign {
			m.payloads[w] = nil
			if len(ss) > 0 {
				m.payloads[w] = (&expandReq{Level: ch.level, Lo: ch.lo, Hi: hi, Shards: ss}).encode()
			}
		}
		resps, err := r.cl.replicatedFanout(rs, frameExpand, frameExpandResp, m.payloads)
		if err != nil {
			return nil, err
		}
		for w, resp := range resps {
			if resp == nil {
				continue
			}
			var lv int
			if lv, m.all, err = decodeCandidates(resp, m.all); err != nil {
				return nil, &WorkerError{Worker: w, Addr: r.cl.workers[w].addr, Msg: fmt.Sprintf("malformed expand response: %v", err)}
			}
			if lv != ch.level {
				return nil, fmt.Errorf("distexplore: worker %d answered expand for level %d, want %d", w, lv, ch.level)
			}
			for _, s := range m.assign[w] {
				m.done[s] = true
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
// one shard). first is scratch, emptied here.
func mergeOrder(all []candidate, first map[uint64]int) []candidate {
	slices.SortFunc(all, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.Parent, b.Parent), cmp.Compare(a.SuccIdx, b.SuccIdx))
	})
	clear(first)
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
func (r *run) dedupPhase(ch chunkID, all []candidate) ([]candidate, error) {
	rs, m := r.rs, r.m
	m.byShard = resize(m.byShard, rs.shards)
	m.groups = resize(m.groups, rs.shards)
	for s := range m.groups {
		m.byShard[s] = m.byShard[s][:0]
		m.groups[s] = shardGroup{Shard: s, Keys: m.groups[s].Keys[:0]}
	}
	for i, c := range all {
		s := ownerShard(c.Hash, rs.shards)
		m.byShard[s] = append(m.byShard[s], i)
		m.groups[s].Keys = append(m.groups[s].Keys, c.wireKey)
	}
	m.payloads = resize(m.payloads, rs.workers)
	clear(m.payloads)
	for w := 0; w < rs.workers; w++ {
		if !rs.live(w) {
			continue
		}
		m.mine = m.mine[:0]
		for s, g := range m.groups {
			if len(g.Keys) > 0 && rs.replicates(w, s) {
				m.mine = append(m.mine, g)
			}
		}
		if len(m.mine) > 0 {
			wc := r.cl.workers[w]
			wc.req = appendDedupReq(wc.req[:0], ch.level, ch.lo, m.mine)
			m.payloads[w] = wc.req
		}
	}
	resps, err := r.cl.replicatedFanout(rs, frameDedup, frameDedupResp, m.payloads)
	if err != nil {
		return nil, err
	}
	m.answers = resize(m.answers, rs.workers)
	for w, resp := range resps {
		m.answers[w] = m.answers[w][:0]
		if resp == nil {
			continue
		}
		lv, lo, answers, err := decodeDedupResp(resp, m.answers[w])
		if err != nil {
			return nil, &WorkerError{Worker: w, Addr: r.cl.workers[w].addr, Msg: fmt.Sprintf("malformed dedup response: %v", err)}
		}
		if (chunkID{lv, lo}) != ch {
			return nil, fmt.Errorf("distexplore: worker %d answered dedup for level %d chunk %d, want level %d chunk %d", w, lv, lo, ch.level, ch.lo)
		}
		m.answers[w] = answers
	}

	m.isFresh = resize(m.isFresh, len(all))
	clear(m.isFresh)
	for s := 0; s < rs.shards; s++ {
		if len(m.byShard[s]) == 0 {
			continue
		}
		chosen := []uint64(nil)
		chosenW := -1
		for _, w := range rs.replicasOf(s) {
			if !rs.live(w) {
				continue
			}
			i := slices.IndexFunc(m.answers[w], func(g shardIndices) bool { return g.Shard == s })
			if i < 0 {
				return nil, fmt.Errorf("distexplore: worker %d omitted shard %d from its dedup answer", w, s)
			}
			f := m.answers[w][i].Fresh
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
			return nil, r.lostShard(s)
		}
		for _, i := range chosen {
			if i >= uint64(len(m.byShard[s])) {
				return nil, fmt.Errorf("distexplore: worker %d dedup index %d out of range for shard %d", chosenW, i, s)
			}
			m.isFresh[m.byShard[s][i]] = true
		}
	}
	fresh := all[:0]
	for i, c := range all {
		if m.isFresh[i] {
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
func (r *run) adoptRequest(w, level int, adopts []adoptNode) []byte {
	rs, m := r.rs, r.m
	mine, foreign, paths := m.nodes[:0], m.foreign[:0], m.paths[:0]
	for _, nd := range adopts {
		if !rs.replicates(w, ownerShard(nd.Hash, rs.shards)) {
			continue
		}
		mine = append(mine, nd)
		if nd.Depth == 0 || rs.replicates(w, ownerShard(r.hashes[nd.Parent], rs.shards)) {
			continue
		}
		if len(foreign) == 0 || foreign[len(foreign)-1].Index != nd.Parent {
			p0 := len(paths)
			paths = r.appendPath(paths, int(nd.Parent))
			foreign = append(foreign, foreignParent{Index: nd.Parent, Schedule: paths[p0:len(paths):len(paths)]})
		}
	}
	m.nodes, m.foreign, m.paths = mine, foreign, paths
	if len(mine) == 0 {
		return nil
	}
	wc := r.cl.workers[w]
	wc.req = appendAdoptReq(wc.req[:0], level, foreign, mine)
	return wc.req
}

// appendPath appends the schedule reaching node i from the root, which
// AtlasSnapshot.PathTo returns, to dst.
func (r *run) appendPath(dst model.Schedule, i int) model.Schedule {
	n := len(dst)
	dst = resize(dst, n+int(r.nodes.Depth[i]))
	for k := len(dst) - 1; k >= n; k-- {
		dst[k] = r.nodes.ParentVia[i]
		i = int(r.nodes.Parent[i])
	}
	return dst
}

// adoptPhase hands one level's admitted nodes to every live replica of
// their shards. A worker lost during adoption is tolerated as long as each
// adopted shard keeps a live replica (which, having stayed live, has
// acknowledged its batch).
func (r *run) adoptPhase(level int, adopts []adoptNode) error {
	if len(adopts) == 0 {
		return nil
	}
	rs, m := r.rs, r.m
	m.touched = resize(m.touched, rs.shards)
	clear(m.touched)
	for _, nd := range adopts {
		m.touched[ownerShard(nd.Hash, rs.shards)] = true
	}
	m.payloads = resize(m.payloads, rs.workers)
	clear(m.payloads)
	for w := 0; w < rs.workers; w++ {
		if rs.live(w) {
			m.payloads[w] = r.adoptRequest(w, level, adopts)
		}
	}
	if _, err := r.cl.replicatedFanout(rs, frameAdopt, frameOK, m.payloads); err != nil {
		return err
	}
	for s, touched := range m.touched {
		if _, ok := rs.primary(s); touched && !ok {
			return r.lostShard(s)
		}
	}
	return nil
}
