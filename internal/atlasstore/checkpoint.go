package atlasstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/flpsim/flp/internal/explore"
)

// Run checkpoints: the durable form of a distributed exploration's
// coordinator state at a level boundary. The level-synchronous loop has a
// natural consistent cut at the top of every level — all earlier levels are
// fully expanded, deduped, and adopted; the pending level has been admitted
// but nothing of it has been expanded — so the whole run is recoverable
// from just the admitted node table (parent links, via events, canonical
// keys) plus three scalars: where the pending level starts, whether the
// ledger was already truncated, and how many nodes had been expanded. A
// coordinator killed anywhere past the boundary restarts from it and
// produces byte-identical counts, visit order, and witness schedules,
// re-expanding nothing before the checkpointed level.
//
// The artifact discipline is the atlas store's: checksummed flat binary,
// content-addressed filename, tmp+fsync+rename writes, and corruption
// answered by detect-log-delete so a damaged checkpoint degrades to a
// fresh start, never a wrong resume.

// ckMagic identifies a run-checkpoint artifact (distinct from atlas
// artifacts, which use magic "FLPATLS").
var ckMagic = [8]byte{'F', 'L', 'P', 'C', 'K', 'P', 'T', 1}

// ckFormatVersion is the checkpoint layout version; a mismatch is treated
// like corruption (delete, restart from scratch).
const ckFormatVersion uint32 = 1

// ckFlagTruncated records that the run's ledger had already observed a
// budget or depth cutoff at the boundary.
const ckFlagTruncated uint32 = 1 << 0

// RunKey identifies one resumable exploration: the problem (protocol, n,
// root, avoid filter) plus the bounds. Unlike atlas lineages the bounds are
// part of the identity — a checkpoint is a mid-flight cursor for one exact
// run, not a reusable artifact — while the cluster layout (workers, shards,
// replicas) is deliberately excluded: results are byte-identical across
// layouts, so a checkpoint taken on one cluster resumes on another.
type RunKey struct {
	Protocol string
	N        int
	// RootKey is the exploration root's binary canonical key
	// (model.Config.KeyBytes), prefix already applied.
	RootKey []byte
	// Avoid is the avoided event's wire key (model.Event.Key), "" when the
	// run has no filter.
	Avoid      string
	MaxConfigs int
	MaxDepth   int
}

// RunCheckpoint is a decoded checkpoint: the admitted node table as a
// truncated AtlasSnapshot (no successor edges — SuccStart is [0] — so it
// passes snapshot validation and replays through RestoreAtlasBuilder), the
// index of the first pending-level node, the ledger's truncation flag, and
// the cumulative count of expanded nodes across completed levels.
type RunCheckpoint struct {
	Snap      *explore.AtlasSnapshot
	Start     int
	Truncated bool
	Expanded  int
}

// CheckpointStats is a snapshot of a checkpoint store's operation
// counters.
type CheckpointStats struct {
	// Writes are boundary checkpoints persisted.
	Writes int64
	// Resumes are loads that found a matching checkpoint to restart from.
	Resumes int64
	// Corrupt counts checkpoints that failed validation (checksum, format,
	// identity, or replay) and were deleted — the run restarts from scratch.
	Corrupt int64
	// Skips are resume requests that found no checkpoint (fresh start).
	Skips int64
}

// CheckpointStore is a directory of run checkpoints, one file per RunKey.
// It is safe for concurrent use; operations on one key serialize on a
// per-key lock. Write failures are logged, never fatal — a run that cannot
// checkpoint still completes, it just cannot be resumed.
type CheckpointStore struct {
	*shelf

	writes, resumes, skips atomic.Int64
}

// OpenCheckpoints returns a checkpoint store rooted at dir, creating the
// directory if needed.
func OpenCheckpoints(dir string) (*CheckpointStore, error) {
	sh, err := openShelf(dir, "checkpoint ", "deleting; restarting from scratch")
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{shelf: sh}, nil
}

// Stats returns the cumulative operation counters.
func (s *CheckpointStore) Stats() CheckpointStats {
	return CheckpointStats{
		Writes:  s.writes.Load(),
		Resumes: s.resumes.Load(),
		Corrupt: s.corrupt.Load(),
		Skips:   s.skips.Load(),
	}
}

// file is the content-addressed checkpoint path: a SHA-256 over the
// length-prefixed identity fields.
func (s *CheckpointStore) file(key RunKey) string {
	h := sha256.New()
	var lenb [8]byte
	writeField := func(p []byte) {
		binary.LittleEndian.PutUint64(lenb[:], uint64(len(p)))
		h.Write(lenb[:])
		h.Write(p)
	}
	writeField([]byte(key.Protocol))
	binary.LittleEndian.PutUint64(lenb[:], uint64(key.N))
	h.Write(lenb[:])
	writeField(key.RootKey)
	writeField([]byte(key.Avoid))
	binary.LittleEndian.PutUint64(lenb[:], uint64(key.MaxConfigs))
	h.Write(lenb[:])
	binary.LittleEndian.PutUint64(lenb[:], uint64(key.MaxDepth))
	h.Write(lenb[:])
	return filepath.Join(s.dir, hex.EncodeToString(h.Sum(nil))+".ckpt")
}

// Save persists a boundary checkpoint atomically (temp file, fsync,
// rename), superseding any previous checkpoint for the key. Failures are
// logged, never fatal.
func (s *CheckpointStore) Save(key RunKey, ck *RunCheckpoint) {
	path := s.file(key)
	defer s.lock(path)()
	if s.write(path, encodeCheckpoint(key, ck)) {
		s.writes.Add(1)
	}
}

// Load reads the key's checkpoint: nil when none exists (counted as a
// skip — the resume degrades to a fresh start) or when the file fails
// validation (counted as corrupt, logged, and deleted so the rerun starts
// clean). A non-nil result has passed checksum, format, identity, and
// shape checks; the caller still replays it through RestoreAtlasBuilder,
// reporting a replay failure back via Discard.
func (s *CheckpointStore) Load(key RunKey) *RunCheckpoint {
	path := s.file(key)
	defer s.lock(path)()
	data, ok := s.read(path)
	if !ok {
		s.skips.Add(1)
		return nil
	}
	ck, err := decodeCheckpoint(key, data)
	if err != nil {
		s.drop(path, err)
		return nil
	}
	s.resumes.Add(1)
	return ck
}

// Discard deletes the key's checkpoint because post-load validation
// (snapshot replay) rejected it; counted as corruption.
func (s *CheckpointStore) Discard(key RunKey, err error) {
	path := s.file(key)
	defer s.lock(path)()
	s.drop(path, err)
}

// Clear removes the key's checkpoint after a run completes — a finished
// run has nothing to resume.
func (s *CheckpointStore) Clear(key RunKey) {
	path := s.file(key)
	defer s.lock(path)()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		s.logf("atlasstore: checkpoint clear %s: %v", path, err)
	}
}

// encodeCheckpoint renders a checkpoint to its on-disk bytes: fixed
// header, identity fields, event dictionary, node columns, key table,
// CRC-32C trailer — the atlas artifact's discipline with the checkpoint's
// scalars in place of edge columns.
func encodeCheckpoint(key RunKey, ck *RunCheckpoint) []byte {
	snap := ck.Snap
	var dict eventDict
	parentViaIdx := dict.column(snap.ParentVia)

	var b []byte
	b = append(b, ckMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ckFormatVersion)
	var flags uint32
	if ck.Truncated {
		flags |= ckFlagTruncated
	}
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(snap.Depth))) // V
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Start))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Expanded))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(dict.events))) // D
	b = appendBytes(b, []byte(key.Protocol))
	b = binary.LittleEndian.AppendUint64(b, uint64(key.N))
	b = appendBytes(b, key.RootKey)
	b = appendBytes(b, []byte(key.Avoid))
	b = binary.LittleEndian.AppendUint64(b, uint64(key.MaxConfigs))
	b = binary.LittleEndian.AppendUint64(b, uint64(key.MaxDepth))

	b = dict.appendTo(b)
	b = appendI32s(b, snap.Depth)
	b = appendI32s(b, snap.Parent)
	b = appendI32s(b, parentViaIdx)

	b = appendKeyTable(b, snap.Keys)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b
}

// decodeCheckpoint parses and validates on-disk bytes against the
// requested key. Every failure is a *corruptError; the store logs, deletes,
// and the run restarts from scratch.
func decodeCheckpoint(key RunKey, b []byte) (*RunCheckpoint, error) {
	r, err := openFrame(b, ckMagic, ckFormatVersion)
	if err != nil {
		return nil, err
	}
	flags := r.u32()
	V := r.count()
	start := r.count()
	expanded := r.count()
	D := r.count()
	protoName := string(r.blob())
	// The identity bounds are run parameters, not file-sized counts — a
	// budget of 10M is plausible in a file of 200 bytes — so they bypass
	// count()'s file-length clamp and are validated by the identity
	// cross-check below instead.
	n := int(r.u64())
	rootKey := r.blob()
	avoid := string(r.blob())
	maxConfigs := int(r.u64())
	maxDepth := int(r.u64())
	if r.err != nil {
		return nil, corruptf("truncated header")
	}
	if V == 0 || start < 1 || start >= V {
		return nil, corruptf("implausible counts V=%d start=%d", V, start)
	}
	if protoName != key.Protocol || n != key.N || !bytes.Equal(rootKey, key.RootKey) ||
		avoid != key.Avoid || maxConfigs != key.MaxConfigs || maxDepth != key.MaxDepth {
		return nil, corruptf("checkpoint identity does not match the requested run")
	}

	dict, err := readEventDict(r, D)
	if err != nil {
		return nil, err
	}

	depth := r.i32s(V)
	parent := r.i32s(V)
	parentViaIdx := r.i32s(V)
	keys, err := readKeyTable(r, V)
	if err != nil {
		return nil, err
	}
	parentVia, err := viaColumn(parentViaIdx, dict)
	if err != nil {
		return nil, err
	}
	// Boundary invariant: admission order is breadth-first (depths
	// non-decreasing) and nodes [start, V) are exactly the pending level —
	// one contiguous run at the deepest depth, starting right after a node
	// one level shallower.
	for i := 1; i < V; i++ {
		if depth[i] < depth[i-1] {
			return nil, corruptf("node depths not in admission order at %d", i)
		}
	}
	if depth[start] != depth[V-1] || depth[start-1] != depth[start]-1 {
		return nil, corruptf("pending level [%d,%d) is not a level boundary", start, V)
	}
	snap := &explore.AtlasSnapshot{
		Depth: depth, Parent: parent, ParentVia: parentVia,
		SuccStart: []int32{0}, Keys: keys,
	}
	return &RunCheckpoint{
		Snap:      snap,
		Start:     start,
		Truncated: flags&ckFlagTruncated != 0,
		Expanded:  expanded,
	}, nil
}
