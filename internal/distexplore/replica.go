package distexplore

import "fmt"

// Shard replication. Every hash-range shard s is served by R workers — the
// deterministic replica chain (s+0) mod W, (s+1) mod W, … (s+R-1) mod W —
// so losing any single worker (with R ≥ 2) leaves at least one live copy
// of every shard's visited-set slice and frontier. The first *live* worker
// in a shard's chain is its primary: the coordinator reads expansion and
// dedup answers from the primary and treats the rest as hot standbys that
// receive every state-mutating batch. Because standbys apply the same
// batches in the same order, a promoted standby answers exactly what the
// dead primary would have — which is what keeps failover invisible in the
// output.

// DefaultReplicas is the replication factor applied when Task.Replicas is
// zero: each shard on two workers, so any single worker loss is survivable.
const DefaultReplicas = 2

// shardReplicas returns the ordered replica chain of one shard: the
// workers (shard+r) mod workerCount for r = 0..replicas-1, without
// duplicates (replicas is capped at workerCount, so the chain never wraps
// onto itself). Index 0 is the shard's home worker — the primary while it
// lives. Both the coordinator and the workers derive placement from this
// one function, so they can never disagree about who holds what.
func shardReplicas(shard, workerCount, replicas int) []int {
	if replicas > workerCount {
		replicas = workerCount
	}
	if replicas < 1 {
		replicas = 1
	}
	chain := make([]int, replicas)
	for r := 0; r < replicas; r++ {
		chain[r] = (shard + r) % workerCount
	}
	return chain
}

// workerReplicatesShard reports whether the given worker appears in the
// shard's replica chain.
func workerReplicatesShard(worker, shard, workerCount, replicas int) bool {
	if replicas > workerCount {
		replicas = workerCount
	}
	if replicas < 1 {
		replicas = 1
	}
	// worker == (shard+r) mod W for some r in [0, replicas).
	d := (worker - shard%workerCount + workerCount) % workerCount
	return d < replicas
}

// replicaSet is the coordinator's liveness view for one exploration run:
// the shard layout plus which workers have been declared lost. A dead
// worker's stale state is never trusted again — re-admitting it as-is would
// break the "every live replica saw every batch" invariant that makes
// promotion byte-identical. The one sanctioned way back in is revive, used
// by the rejoin path after the worker has been re-initialized from scratch
// and backfilled with the full admitted state, which re-establishes that
// invariant by construction.
type replicaSet struct {
	shards   int
	workers  int
	replicas int
	dead     []bool
	lostErr  []error // per worker: the transport error that killed it

	// level and ckDesc feed the coverage-loss diagnostic: the level being
	// processed when coverage was lost, and a description of the last good
	// checkpoint (or why there is none). Both are maintained by Explore.
	level  int
	ckDesc string
}

func newReplicaSet(shards, workers, replicas int) *replicaSet {
	if replicas > workers {
		replicas = workers
	}
	if replicas < 1 {
		replicas = 1
	}
	return &replicaSet{
		shards:   shards,
		workers:  workers,
		replicas: replicas,
		dead:     make([]bool, workers),
		lostErr:  make([]error, workers),
	}
}

func (rs *replicaSet) live(w int) bool { return !rs.dead[w] }

// liveCount is the number of workers not declared lost.
func (rs *replicaSet) liveCount() int {
	n := 0
	for _, d := range rs.dead {
		if !d {
			n++
		}
	}
	return n
}

// markLost records a worker as dead together with the transport error that
// condemned it, for the diagnostic if a shard later loses its last copy.
func (rs *replicaSet) markLost(w int, err error) {
	if !rs.dead[w] {
		rs.dead[w] = true
		rs.lostErr[w] = err
	}
}

// replicasOf returns the shard's replica chain (dead members included —
// callers filter by liveness so the primary order stays deterministic).
func (rs *replicaSet) replicasOf(shard int) []int {
	return shardReplicas(shard, rs.workers, rs.replicas)
}

// primary returns the first live worker in the shard's replica chain.
func (rs *replicaSet) primary(shard int) (int, bool) {
	for _, w := range rs.replicasOf(shard) {
		if rs.live(w) {
			return w, true
		}
	}
	return -1, false
}

// replicates reports whether worker w serves shard s (as primary or
// standby), ignoring liveness.
func (rs *replicaSet) replicates(w, shard int) bool {
	return workerReplicatesShard(w, shard, rs.workers, rs.replicas)
}

// revive clears a worker's dead mark after the rejoin path has re-initialized
// and backfilled a replacement process on its address; from here on it is a
// full replica again.
func (rs *replicaSet) revive(w int) {
	rs.dead[w] = false
	rs.lostErr[w] = nil
}

// shardLostError is the coverage-loss abort: some shard's entire replica
// chain is dead. It is a distinct type so the rejoin path can recognize it
// (only coverage losses are waitable; worker-reported errors are not) and
// carries the shard for targeted recovery.
type shardLostError struct {
	shard int
	msg   string
	cause error
}

func (e *shardLostError) Error() string { return e.msg }
func (e *shardLostError) Unwrap() error { return e.cause }

// lostShard builds the abort diagnostic for a shard whose entire replica
// chain is dead: it names the shard, the level being processed, the chain,
// and the last good checkpoint (if any), and surfaces the transport error
// that killed the last copy — preserving the "lost … unrecoverable"
// language the R=1 path has always reported.
func (rs *replicaSet) lostShard(shard int) error {
	chain := rs.replicasOf(shard)
	var last error
	for _, w := range chain {
		if rs.lostErr[w] != nil {
			last = rs.lostErr[w]
		}
	}
	return &shardLostError{
		shard: shard,
		cause: last,
		msg: fmt.Sprintf(
			"distexplore: shard %d has no live replica left at level %d (chain %v, replication %d; %s): %v",
			shard, rs.level, chain, rs.replicas, rs.ckDesc, last),
	}
}
