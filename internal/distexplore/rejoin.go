package distexplore

import (
	"errors"
	"fmt"
	"time"

	"github.com/flpsim/flp/internal/model"
)

// withRejoin runs one RPC phase, converting a shard-coverage loss into a
// bounded wait for a replacement worker when rejoin is enabled. The phase
// retry is safe: expansion is pure, and the idempotency guards on surviving
// workers answer a retried dedup chunk from cache and skip the nodes of a
// retried adopt they already hold.
func (r *run) withRejoin(phase func() error) error {
	for {
		err := phase()
		if err == nil || r.cl.opt.RejoinWait <= 0 {
			return err
		}
		var sl *shardLostError
		if !errors.As(err, &sl) {
			return err
		}
		if !r.rejoinShard(sl.shard) {
			return fmt.Errorf("%w; waited %v for a replacement worker to rejoin, none arrived",
				err, r.cl.opt.RejoinWait)
		}
	}
}

// rejoinShard waits up to RejoinWait for a replacement process to answer on
// a dead replica's address, dialing every RetryBackoff, then re-initializes
// and backfills it. Reviving is safe precisely because the replacement is
// rebuilt from scratch: frameInit discards whatever stale state the address
// held, and the backfill re-derives live-replica state from the
// coordinator's own admitted table.
func (r *run) rejoinShard(shard int) bool {
	deadline := time.Now().Add(r.cl.opt.RejoinWait)
	for {
		for _, w := range r.rs.replicasOf(shard) {
			if r.rs.live(w) {
				continue
			}
			if r.cl.redial(w) != nil {
				continue
			}
			if r.initWorker(w) != nil || r.backfillWorker(w) != nil {
				continue
			}
			r.rs.revive(w)
			r.cl.stats.Rejoined++
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(r.cl.opt.RetryBackoff)
	}
}

// backfillWorker replays the admitted node table into one freshly
// re-initialized replacement worker: every level's nodes for the shards it
// replicates, re-adopted in admission order with the frame the level loop
// sends. Adoption interns each key into the worker's visited slice and
// rebuilds its frontier, so after the backfill the replacement holds exactly
// the state a live replica carries at this chunk boundary — the nodes
// earlier chunks of the running level admitted included, which the level's
// own adopt phase then finds already applied (adoption is idempotent per
// node). Rejoin keeps the run's configurations (cfgs), so identities come
// from there.
func (r *run) backfillWorker(w int) error {
	return r.adoptedLevels(r.cfgs, func(depth int, adopts []adoptNode) error {
		req := r.adoptRequest(w, depth, adopts)
		if req == nil {
			return nil
		}
		return r.cl.expectOK(w, frameAdopt, req)
	})
}

// adoptedLevels walks the admitted node table the way the run adopted it:
// one batch per level, in admission order, depth-capped levels skipped
// because the run never adopted them. from is the config table to take
// identities from.
func (r *run) adoptedLevels(from []*model.Config, send func(depth int, adopts []adoptNode) error) error {
	n := r.nodes.Len()
	for lo := 0; lo < n; {
		hi, d := lo, r.nodes.Depth[lo]
		for hi < n && r.nodes.Depth[hi] == d {
			hi++
		}
		if !r.eopt.DepthCapped(int(d)) {
			adopts := make([]adoptNode, 0, hi-lo)
			for i := lo; i < hi; i++ {
				adopts = append(adopts, adoptNode{
					Index: uint64(i), Depth: uint64(d), wireKey: identityOf(from[i]),
					Parent: uint64(max(r.nodes.Parent[i], 0)), Via: r.nodes.ParentVia[i],
				})
			}
			if err := send(int(d), adopts); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}
