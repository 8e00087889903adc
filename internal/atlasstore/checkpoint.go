package atlasstore

import (
	"os"
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
// A checkpoint is an atlas artifact with the run-cursor flag: the node
// columns, event dictionary, key table and CRC-32C trailer are the
// artifact's own, with no edges, and the header carries the cursor. The
// discipline is the atlas store's too: content-addressed filename,
// tmp+fsync+rename writes, and corruption answered by detect-log-delete so
// a damaged checkpoint degrades to a fresh start, never a wrong resume.

// RunKey identifies one resumable exploration: the problem (protocol, n,
// root, avoid filter) plus the budget. Unlike atlas lineages the budget is
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
	// Avoid is the avoided event's wire encoding (model.AppendEvent), ""
	// when the run has no filter.
	Avoid      string
	MaxConfigs int
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
	sh, err := openShelf(dir, true)
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

// Save persists a boundary checkpoint atomically (temp file, fsync,
// rename), superseding any previous checkpoint for the key. Failures are
// logged, never fatal.
func (s *CheckpointStore) Save(key RunKey, ck *RunCheckpoint) {
	path := s.file(key)
	defer s.lock(path)()
	if s.write(path, encodeRun(key, ck)) {
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
	ck, err := decodeRun(key, data)
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

// encodeRun renders a checkpoint: key's artifact with the run cursor.
func encodeRun(key RunKey, ck *RunCheckpoint) []byte {
	return encodeArtifact(&artifact{Key: key, Run: true, RunCheckpoint: *ck})
}

// decodeRun decodes a checkpoint written for key. Every failure is a
// *corruptError; the store logs, deletes, and the run restarts from scratch.
func decodeRun(key RunKey, b []byte) (*RunCheckpoint, error) {
	a, err := decodeFor(key, true, b)
	if err != nil {
		return nil, err
	}
	return &a.RunCheckpoint, nil
}
