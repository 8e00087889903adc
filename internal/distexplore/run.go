package distexplore

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// run is one Cluster.Explore call: the state it owns and one method per
// phase — init, begin (restore or adopt the root), walkLevel (boundary
// checkpoint, then per chunk expand → merge → dedup → visit/admit, then
// adopt) and result. Checkpoint phases are in checkpoint.go, rejoin and
// backfill in rejoin.go.
type run struct {
	cl    *Cluster
	t     Task
	eopt  explore.Options
	visit explore.Visit
	pr    model.Protocol
	root  *model.Config
	rs    *replicaSet
	led   *explore.Ledger

	// The admitted node table: the tree columns of a truncated snapshot —
	// what a checkpoint saves and a resume restores; its key column stays
	// empty, keys are the writer's — beside each node's fingerprint, which
	// names its shard. cfgs is non-nil only when the run itself consumes
	// configurations (visits, rejoin backfills).
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
}

// errStopped is a visit callback's deliberate stop; result reports no error.
var errStopped = errors.New("distexplore: visit stopped the run")

// newRun resolves the task's protocol and root and returns a run holding
// just the root.
func (cl *Cluster) newRun(t Task, visit explore.Visit) (*run, error) {
	cl.interrupted.Store(false)
	cl.stats = RunStats{ResumedLevel: -1}
	pr, root, err := jobRoot(RegistryProvider, t.Protocol, t.N, t.Inputs, t.Prefix)
	if err != nil {
		return nil, err
	}
	W := len(cl.workers)
	shards := t.Shards
	if shards <= 0 {
		shards = W
	}
	r := &run{
		cl: cl, t: t, eopt: t.Options.Normalized(), visit: visit, pr: pr, root: root,
		rs: newReplicaSet(shards, W, ReplicaCount(t.Replicas, W)),
		nodes: explore.AtlasSnapshot{
			Depth: []int32{0}, Parent: []int32{-1}, ParentVia: []model.Event{{}},
			SuccStart: []int32{0}, // no successor edges: a truncated snapshot
		},
		hashes: []uint64{root.Hash()},
		wcfgs:  []*model.Config{root},
		ckDesc: "checkpointing disabled",
	}
	r.led = explore.NewLedger(r.eopt)
	if visit != nil || cl.opt.RejoinWait > 0 {
		r.cfgs = []*model.Config{root}
	}
	if t.Checkpoints != nil {
		r.ckDesc = fmt.Sprintf("no checkpoint written yet in %s", t.Checkpoints.Dir())
	}
	return r, nil
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
	var adopts []adoptNode
	for lo, hi := start, start; lo < end; lo = hi {
		var fresh []candidate
		if hi, fresh, err = r.expandChunk(lo, end); err != nil {
			return start, err
		}
		if adopts, err = r.admitChunk(lo, hi, fresh, adopts); err != nil {
			return start, err
		}
	}
	if len(adopts) == 0 || r.led.Sealed() || r.eopt.DepthCapped(r.level+1) {
		return end, nil
	}
	return end, r.withRejoin(func() error { return r.adoptPhase(r.level+1, adopts) })
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
	var all []candidate
	if err := r.withRejoin(func() (err error) {
		all, err = r.expandPhase(ch, hi)
		return err
	}); err != nil {
		return hi, nil, err
	}
	r.cl.stats.ExpandedNodes += hi - lo
	r.cl.stats.LiveExpanded += hi - lo
	all = mergeOrder(all)
	err = r.withRejoin(func() (err error) {
		fresh, err = r.dedupPhase(ch, all)
		return err
	})
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
// table and returns its adopt record.
func (r *run) admit(parent int, c candidate) adoptNode {
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
// to stop.
func (r *run) visitNode(i int) bool {
	return r.visit != nil && r.visit(r.cfgs[i], int(r.nodes.Depth[i]), r.pathOf(i))
}

// pathOf defers node i's schedule until a visit asks for it. The run's
// node table outlives the run, so this path answers after its visit too;
// explore.Visit's contract does not promise that, and no caller relies on
// it.
func (r *run) pathOf(i int) func() model.Schedule {
	return func() model.Schedule { return r.nodes.PathTo(i) }
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
// shard runs out of live replicas.
func (r *run) expandPhase(ch chunkID, hi int) ([]candidate, error) {
	rs := r.rs
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
				return nil, r.lostShard(s)
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
		resps, err := r.cl.replicatedFanout(rs, frameExpand, frameExpandResp, payloads)
		if err != nil {
			return nil, err
		}
		for w, resp := range resps {
			lv, cands, err := decodeCandidates(resp)
			if err != nil {
				return nil, &WorkerError{Worker: w, Addr: r.cl.workers[w].addr, Msg: fmt.Sprintf("malformed expand response: %v", err)}
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
func (r *run) dedupPhase(ch chunkID, all []candidate) ([]candidate, error) {
	rs := r.rs
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
			wc := r.cl.workers[w]
			wc.req = appendDedupReq(wc.req[:0], ch.level, ch.lo, mine)
			payloads[w] = wc.req
		}
	}
	resps, err := r.cl.replicatedFanout(rs, frameDedup, frameDedupResp, payloads)
	if err != nil {
		return nil, err
	}
	freshBy := make(map[int]map[int][]uint64, len(resps))
	for w, resp := range resps {
		lv, lo, answers, err := decodeDedupResp(resp)
		if err != nil {
			return nil, &WorkerError{Worker: w, Addr: r.cl.workers[w].addr, Msg: fmt.Sprintf("malformed dedup response: %v", err)}
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
			return nil, r.lostShard(s)
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
func (r *run) adoptRequest(w, level int, adopts []adoptNode) []byte {
	rs := r.rs
	var mine []adoptNode
	var foreign []foreignParent
	for _, nd := range adopts {
		if !rs.replicates(w, ownerShard(nd.Hash, rs.shards)) {
			continue
		}
		mine = append(mine, nd)
		if nd.Depth == 0 || rs.replicates(w, ownerShard(r.hashes[nd.Parent], rs.shards)) {
			continue
		}
		if len(foreign) == 0 || foreign[len(foreign)-1].Index != nd.Parent {
			foreign = append(foreign, foreignParent{Index: nd.Parent, Schedule: r.nodes.PathTo(int(nd.Parent))})
		}
	}
	if len(mine) == 0 {
		return nil
	}
	wc := r.cl.workers[w]
	wc.req = appendAdoptReq(wc.req[:0], level, foreign, mine)
	return wc.req
}

// adoptPhase hands one level's admitted nodes to every live replica of
// their shards. A worker lost during adoption is tolerated as long as each
// adopted shard keeps a live replica (which, having stayed live, has
// acknowledged its batch).
func (r *run) adoptPhase(level int, adopts []adoptNode) error {
	if len(adopts) == 0 {
		return nil
	}
	rs := r.rs
	touched := make(map[int]bool)
	for _, nd := range adopts {
		touched[ownerShard(nd.Hash, rs.shards)] = true
	}
	payloads := make(map[int][]byte)
	for w := 0; w < rs.workers; w++ {
		if !rs.live(w) {
			continue
		}
		if p := r.adoptRequest(w, level, adopts); p != nil {
			payloads[w] = p
		}
	}
	if _, err := r.cl.replicatedFanout(rs, frameAdopt, frameOK, payloads); err != nil {
		return err
	}
	for s := range touched {
		if _, ok := rs.primary(s); !ok {
			return r.lostShard(s)
		}
	}
	return nil
}
