package explore

import (
	"bytes"
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// This file is the incremental/persistent side of the valency atlas: a
// resumable builder whose exploration state can be captured at a node
// boundary, serialized (by package atlasstore), and extended later —
// including in a different process — without re-expanding anything, plus
// the snapshot form a complete Atlas round-trips through for disk-backed
// loads.
//
// The invariant everything here rests on: atlas construction is a
// deterministic trajectory. Nodes are admitted in breadth-first canonical
// order, each node's successor list depends only on the node and the
// protocol, and the expanded set is always a prefix [0, Expanded) of the
// admission order. Any sequence of Extend calls therefore walks the same
// trajectory as a single uninterrupted build — a depth-d state extended by
// k is byte-identical to a one-shot depth-(d+k) build, which is what makes
// frontier resume safe to persist. The trajectory itself is walked by the
// level-synchronous core (core.go); builder, atlas and snapshot all hold
// its one node table rather than copies of it.

// AtlasSnapshot is the serializable exploration state behind an Atlas (or
// a partial build on its way to one): the struct-of-arrays node table, the
// successor CSR closed through the expanded prefix, and — for complete
// snapshots — the two backward-distance columns. Keys carries each node's
// binary canonical key (model.Config.KeyBytes) by dense id; it is both
// the identity table a loaded atlas answers IDOf from and the integrity
// check replay is verified against.
//
// Slices in a snapshot alias the live atlas/builder arrays — treat a
// snapshot as read-only.
type AtlasSnapshot struct {
	Depth     []int32
	Parent    []int32
	ParentVia []model.Event
	SuccStart []int32 // len = Expanded()+1
	SuccTo    []int32
	SuccVia   []model.Event
	Keys      [][]byte
	Complete  bool
	// Dist0/Dist1 are the backward shortest-distance columns (valency
	// bits + witness lengths). Present only on Complete snapshots taken
	// from a finished Atlas; a complete *builder's* snapshot omits them
	// (the two backward passes run in Finish), and LoadAtlas requires
	// them.
	Dist0, Dist1 []int32
}

// Len returns the number of admitted nodes.
func (s *AtlasSnapshot) Len() int { return len(s.Depth) }

// Expanded returns the number of nodes whose successor lists are closed;
// nodes [Expanded, Len) are the stored frontier.
func (s *AtlasSnapshot) Expanded() int { return len(s.SuccStart) - 1 }

// PathTo returns the shortest schedule from the root to node i, read off
// the breadth-first tree's Parent and ParentVia columns.
func (s *AtlasSnapshot) PathTo(i int) model.Schedule {
	return treePath(i, int(s.Depth[i]), func(j int) (int, model.Event) {
		return int(s.Parent[j]), s.ParentVia[j]
	})
}

// validateFor checks the cross-array invariants a well-formed snapshot
// satisfies, so a mangled artifact surfaces as an error instead of an
// index panic deep in replay, and that the snapshot describes root.
func (s *AtlasSnapshot) validateFor(root *model.Config) error {
	v := len(s.Depth)
	if v == 0 {
		return fmt.Errorf("explore: snapshot has no nodes")
	}
	if len(s.Parent) != v || len(s.ParentVia) != v || len(s.Keys) != v {
		return fmt.Errorf("explore: snapshot column lengths disagree")
	}
	x := len(s.SuccStart) - 1
	if x < 0 || x > v {
		return fmt.Errorf("explore: snapshot expanded count %d out of range [0,%d]", x, v)
	}
	if s.Complete && x != v {
		return fmt.Errorf("explore: complete snapshot with %d of %d nodes expanded", x, v)
	}
	if s.Complete && !(len(s.Dist0) == v && len(s.Dist1) == v) && !(len(s.Dist0) == 0 && len(s.Dist1) == 0) {
		return fmt.Errorf("explore: complete snapshot with malformed distance columns")
	}
	if !s.Complete && (len(s.Dist0) != 0 || len(s.Dist1) != 0) {
		return fmt.Errorf("explore: truncated snapshot carries distance columns")
	}
	e := len(s.SuccTo)
	if len(s.SuccVia) != e {
		return fmt.Errorf("explore: snapshot edge columns disagree")
	}
	prev := int32(0)
	if s.SuccStart[0] != 0 {
		return fmt.Errorf("explore: snapshot CSR does not start at 0")
	}
	for _, off := range s.SuccStart {
		if off < prev || int(off) > e {
			return fmt.Errorf("explore: snapshot CSR offsets not monotonic")
		}
		prev = off
	}
	if int(s.SuccStart[x]) != e {
		return fmt.Errorf("explore: snapshot CSR does not close at %d edges", e)
	}
	for _, to := range s.SuccTo {
		if to < 0 || int(to) >= v {
			return fmt.Errorf("explore: snapshot edge target %d out of range", to)
		}
	}
	if s.Parent[0] != -1 {
		return fmt.Errorf("explore: snapshot root has a parent")
	}
	for i := 1; i < v; i++ {
		p := s.Parent[i]
		if p < 0 || int(p) >= i {
			return fmt.Errorf("explore: snapshot node %d has non-tree parent %d", i, p)
		}
		if s.Depth[i] != s.Depth[p]+1 {
			return fmt.Errorf("explore: snapshot node %d depth disagrees with its parent", i)
		}
	}
	if !bytes.Equal(s.Keys[0], root.KeyBytes()) {
		return fmt.Errorf("explore: snapshot root key does not match the requested root")
	}
	return nil
}

// AtlasBuilder is the resumable form of BuildAtlas — which is itself one
// builder extended once and finished: truncation (by budget or depth)
// leaves a usable state — every node admitted so far, the successor CSR
// closed through the last expanded node — and Extend resumes expansion from
// exactly that point. It stops *before* the first node whose fresh
// successors would overflow the budget, so the captured state is always at
// a clean node boundary.
//
// An AtlasBuilder is not safe for concurrent use; the store serializes
// access per artifact.
type AtlasBuilder struct {
	core
	finished bool
}

// NewAtlasBuilder returns a builder holding just the root, nothing
// expanded.
func NewAtlasBuilder(pr model.Protocol, root *model.Config) *AtlasBuilder {
	return &AtlasBuilder{core: newCore(pr, root, nil, true)}
}

// Expanded returns the number of nodes whose successor lists are closed.
// Nodes [Expanded, Len) are the frontier Extend resumes from.
func (b *AtlasBuilder) Expanded() int { return b.g.Expanded() }

// Configs exposes the admitted configurations by dense id. The slice
// aliases the builder's arrays — callers must treat it as read-only. Its
// main consumer is checkpoint recovery: RestoreAtlasBuilder has already
// replayed and key-verified every configuration, and a resuming
// coordinator needs them back without paying a second replay.
func (b *AtlasBuilder) Configs() []*model.Config { return b.cfgs }

// Complete reports whether the reachable set is exhausted (empty
// frontier).
func (b *AtlasBuilder) Complete() bool { return b.g.Complete }

// Extend expands frontier nodes in admission order under opt's bounds and
// reports how many nodes this call expanded. It stops — leaving the state
// at a node boundary — before the first node at depth ≥ opt.MaxDepth (when
// set), or before the first node whose distinct fresh successors would push
// the node count past opt.MaxConfigs. When neither bound intervenes the
// reachable set is exhausted and the builder becomes complete.
//
// The trajectory is deterministic: any sequence of Extend calls reaching
// the same bounds yields byte-identical arrays to a single call, which is
// the contract frontier persistence rests on. Expansion honours
// opt.Workers level-synchronously exactly like the other engines; the
// merge order (and therefore every array) is worker-count independent.
func (b *AtlasBuilder) Extend(opt Options) (newlyExpanded int) {
	if b.finished {
		panic("explore: AtlasBuilder used after Finish")
	}
	opt = opt.withDefaults()
	from := b.Expanded()
	b.g.Complete = b.walk(from, opt, nil)
	return b.Expanded() - from
}

// Finish converts a complete builder into an Atlas: predecessor CSR plus
// the two backward passes. ok=false when the frontier is not empty. The
// builder hands its node table to the atlas and must not be used
// afterwards.
func (b *AtlasBuilder) Finish() (*Atlas, bool) {
	if !b.g.Complete {
		return nil, false
	}
	b.finished = true
	a := &Atlas{core: b.core}
	a.buildPred()
	a.g.Dist0 = a.distToValue(model.V0)
	a.g.Dist1 = a.distToValue(model.V1)
	return a, true
}

// RestoreAtlasBuilder reconstructs a resumable builder from a snapshot by
// replaying the breadth-first tree (core.replay): one verified protocol
// step per node — no re-exploration, no dedup sweeps — with any divergence
// an error, never a wrong atlas.
func RestoreAtlasBuilder(pr model.Protocol, root *model.Config, snap *AtlasSnapshot) (*AtlasBuilder, error) {
	if err := snap.validateFor(root); err != nil {
		return nil, err
	}
	b := &AtlasBuilder{core: core{pr: pr, index: model.NewInterner(), cfgs: make([]*model.Config, snap.Len()), g: *snap, edges: true}}
	// The builder grows past the snapshot: its keys are recomputed on the
	// next Snapshot, its distances by Finish.
	b.g.Keys, b.g.Dist0, b.g.Dist1 = nil, nil, nil
	b.cfgs[0] = root
	for i := 1; i < len(b.cfgs); i++ {
		if err := b.replay(i, snap.Keys[i]); err != nil {
			return nil, err
		}
	}
	for i, c := range b.cfgs {
		b.index.InternTag(c, uint64(i))
	}
	return b, nil
}

// LoadAtlas reconstructs an Atlas from a complete snapshot without
// replaying a single protocol step: classifications, witness lengths,
// witness schedules, and frontier walks all run off the persisted arrays,
// and configurations materialize lazily (by replaying the parent chain)
// only if a caller asks for one. IDOf answers from the persisted key
// table. This is the warm path — loading is array decoding, not
// exploration.
//
// The snapshot must describe root under pr; the root key is verified here
// and every lazily materialized configuration is verified against its
// stored key, so a stale or corrupt snapshot fails loudly instead of
// answering wrongly.
func LoadAtlas(pr model.Protocol, root *model.Config, snap *AtlasSnapshot) (*Atlas, error) {
	if !snap.Complete {
		return nil, fmt.Errorf("explore: cannot load a partial snapshot as an atlas")
	}
	if err := snap.validateFor(root); err != nil {
		return nil, err
	}
	if len(snap.Dist0) != len(snap.Depth) {
		return nil, fmt.Errorf("explore: snapshot lacks distance columns")
	}
	a := &Atlas{core: core{pr: pr, cfgs: make([]*model.Config, snap.Len()), g: *snap, edges: true}}
	a.cfgs[0] = root
	a.buildPred()
	return a, nil
}
