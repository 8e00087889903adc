package distexplore

import (
	"fmt"
	"time"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// openCheckpoints derives the run's checkpoint identity — the problem plus
// bounds, not the cluster layout, since results are byte-identical across
// layouts — and starts the write-behind, which the caller closes.
func (r *run) openCheckpoints() {
	r.ckKey = atlasstore.RunKey{
		Protocol: r.t.Protocol, N: r.t.N, RootKey: r.root.KeyBytes(),
		MaxConfigs: r.eopt.MaxConfigs, MaxDepth: r.eopt.MaxDepth,
	}
	if r.t.Avoid != nil {
		r.ckKey.Avoid = r.t.Avoid.Key()
	}
	// Closing the write-behind drains it before Explore returns on ANY
	// path, so every enqueued boundary is durable when the caller observes
	// the result — including the error paths a resume recovers from.
	r.ckw = newCkWriter()
}

// restore loads the task's checkpoint and replays it through
// explore.RestoreAtlasBuilder, which re-verifies every configuration. The
// restored snapshot becomes the node table; only the fingerprints are
// computed. ok = false means no usable checkpoint (a replay failure drops
// the file): the run starts fresh.
func (r *run) restore() (start int, ok bool) {
	ck := r.t.Checkpoints.Load(r.ckKey)
	if ck == nil {
		return 0, false
	}
	b, err := explore.RestoreAtlasBuilder(r.pr, r.root, ck.Snap)
	if err != nil {
		r.t.Checkpoints.Discard(r.ckKey, err)
		return 0, false
	}
	r.nodes, r.wkeys, r.wcfgs = *ck.Snap, ck.Snap.Keys, b.Configs()
	r.nodes.Keys = nil
	r.hashes = make([]uint64, len(r.wcfgs))
	for i, c := range r.wcfgs {
		r.hashes[i] = c.Hash()
	}
	if r.cfgs != nil {
		r.cfgs = r.wcfgs
	}
	r.led.Count, r.led.Truncated = r.nodes.Len(), ck.Truncated
	level := int(r.nodes.Depth[ck.Start])
	r.cl.stats.ResumedNodes = r.nodes.Len()
	r.cl.stats.ResumedLevel = level
	r.cl.stats.ExpandedNodes = ck.Expanded
	r.ckDesc = fmt.Sprintf("last-good checkpoint: level %d in %s", level, r.t.Checkpoints.Dir())
	return ck.Start, true
}

// resume brings the workers and the caller level with a restored table.
// Every worker is backfilled with the admitted state by the same per-level
// adoption the original run performed — skipped entirely when the budget is
// sealed: no expansion will ever run again, so no worker needs state. Then
// the completed prefix's visits are replayed, so callers observe the same
// stream an uninterrupted run would produce (visit callbacks must be
// deterministic for resume to be transparent).
func (r *run) resume(start int) error {
	if !r.led.Sealed() {
		if err := r.adoptedLevels(r.wcfgs, r.adoptPhase); err != nil {
			return err
		}
	}
	for i := 0; i < start; i++ {
		if r.visitNode(i) {
			return errStopped
		}
	}
	return nil
}

// boundary enqueues the durable cut before the level [start, end) runs:
// every level before it is fully expanded, deduped and adopted, nothing of
// it is expanded yet. It is drained before Explore returns, so a crash
// anywhere inside the level restarts from this boundary. The checkpoint
// takes frozen prefixes of the table's columns: they are append-only, so
// the background encode reads them race-free while the level grows the tail.
func (r *run) boundary(start, end int) error {
	if r.ckw == nil || start == 0 {
		return nil
	}
	var cfgs []*model.Config
	if r.cfgs != nil {
		cfgs = r.cfgs[:end:end]
	}
	ck := &atlasstore.RunCheckpoint{
		Snap: &explore.AtlasSnapshot{
			Depth:     r.nodes.Depth[:end:end],
			Parent:    r.nodes.Parent[:end:end],
			ParentVia: r.nodes.ParentVia[:end:end],
			SuccStart: r.nodes.SuccStart,
		},
		Start:     start,
		Truncated: r.led.Truncated,
		Expanded:  r.cl.stats.ExpandedNodes,
	}
	r.ckw.enqueue(func() { r.save(ck, cfgs) })
	r.cl.stats.Checkpoints++
	r.ckDesc = fmt.Sprintf("last-good checkpoint: level %d in %s", r.level, r.t.Checkpoints.Dir())
	if r.t.CheckpointHook != nil {
		r.ckw.flush() // the hook may crash the process; the boundary must be on disk first
		if err := r.t.CheckpointHook(r.level); err != nil {
			return fmt.Errorf("distexplore: checkpoint hook at level %d: %w", r.level, err)
		}
	}
	return nil
}

// save writes one boundary checkpoint on the write-behind goroutine. cfgs
// is the run's own config prefix, or nil when the run keeps none: the
// missing configurations are then derived here, off the critical path, by
// replaying each admitted node's edge from its parent. The config chain and
// the key column persist across boundaries, so the whole run pays one
// MustApply and one key per node in total.
func (r *run) save(ck *atlasstore.RunCheckpoint, cfgs []*model.Config) {
	snap := ck.Snap
	end := snap.Len()
	if cfgs == nil {
		for i := len(r.wcfgs); i < end; i++ {
			r.wcfgs = append(r.wcfgs, model.MustApply(r.pr, r.wcfgs[snap.Parent[i]], snap.ParentVia[i]))
		}
		cfgs = r.wcfgs
	}
	for i := len(r.wkeys); i < end; i++ {
		r.wkeys = append(r.wkeys, cfgs[i].KeyBytes())
	}
	snap.Keys = r.wkeys[:end:end]
	r.t.Checkpoints.Save(r.ckKey, ck)
}

// clearCheckpoint removes the run's checkpoint at a deliberate end, after
// dropping whatever boundary is still pending.
func (r *run) clearCheckpoint() {
	if r.ckw != nil {
		r.ckw.discard()
		r.t.Checkpoints.Clear(r.ckKey)
	}
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
	// The buffer lets the coordinator enqueue a boundary without waiting
	// for an fsync in flight; saves are coalesced, so its size only bounds
	// how far ahead it may run before enqueue blocks.
	w := &ckWriter{jobs: make(chan ckItem, 16), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *ckWriter) run() {
	defer close(w.done)
	var pending func()
	lastWrite := time.Now() // runs shorter than the interval write only at fences
	for it := range w.jobs {
		if it.save != nil {
			pending = it.save // latest wins; older boundaries are superseded
		}
		if it.discard {
			pending = nil
		}
		// A fence writes what is pending; otherwise only the newest queued
		// boundary is written, and at most once per interval.
		due := it.fence != nil || len(w.jobs) == 0 && time.Since(lastWrite) >= ckWriteInterval
		if due && pending != nil {
			pending()
			pending, lastWrite = nil, time.Now()
		}
		if it.fence != nil {
			close(it.fence)
		}
	}
	if pending != nil {
		pending() // channel close is Explore returning: a final implicit fence
	}
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
