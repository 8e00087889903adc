package atlasstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// Store is a directory of atlas artifacts, one per exploration lineage.
// A lineage is (protocol registry name, process count, root binary
// canonical key) — deliberately *not* the exploration bounds: the artifact
// holds the deepest/widest state ever computed for that lineage, and every
// request's bounds are resolved against the artifact header. That is what
// makes the two store behaviors fall out of one file: a complete artifact
// answers any budget that covers it (and refuses any that does not,
// without rebuilding), and a truncated artifact carries its frontier so
// the next deeper request resumes instead of re-exploring. Layout and
// semantic versioning live in the artifact header (DESIGN.md §9); a
// version mismatch is handled exactly like corruption — delete, rebuild.
//
// A Store implements explore.AtlasBackend and is safe for concurrent use;
// requests for the same lineage serialize on a per-lineage lock (the
// disk-level analogue of the cache's singleflight), requests for
// different lineages proceed independently.
type Store struct {
	*shelf

	hits, misses, resumes, evictions, refused atomic.Int64
}

// shelf is the directory discipline the atlas store and the checkpoint
// store share: one file per content-addressed key, work on one file
// serialized on a per-path lock, writes atomic (temp file, fsync, rename),
// and damage answered by detect-log-delete. run says which kind of file
// the shelf holds: lineage artifacts (.atlas) or run checkpoints (.ckpt).
// noun prefixes the diagnostics and onCorrupt says what deleting a damaged
// file leads to.
type shelf struct {
	dir             string
	logf            func(format string, args ...any)
	run             bool
	noun, onCorrupt string

	mu    sync.Mutex
	locks map[string]*pathLock

	// corrupt counts files that failed validation and were deleted.
	corrupt atomic.Int64
}

// openShelf returns a shelf of run checkpoints (run) or lineage artifacts
// rooted at dir, creating the directory if needed.
func openShelf(dir string, run bool) (*shelf, error) {
	s := &shelf{dir: dir, logf: log.Printf, run: run, onCorrupt: "deleting for rebuild", locks: make(map[string]*pathLock)}
	if run {
		s.noun, s.onCorrupt = "checkpoint ", "deleting; restarting from scratch"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("atlasstore: %s%w", s.noun, err)
	}
	return s, nil
}

// file is the content-addressed path of key's file: a SHA-256 over the
// identity fields. A lineage hashes the length-prefixed protocol name, the
// process count and the root's binary canonical key; a run length-prefixes
// the root key too and adds the avoid filter, the budget and a reserved
// zero. Registry names are stable identities and gen: protocol names
// encode their full specification, so equal digests mean equal exploration
// problems.
func (s *shelf) file(key RunKey) string {
	b := appendField(nil, []byte(key.Protocol))
	b = binary.LittleEndian.AppendUint64(b, uint64(key.N))
	ext := ".atlas"
	if s.run {
		b = appendField(b, key.RootKey)
		b = appendField(b, []byte(key.Avoid))
		b = binary.LittleEndian.AppendUint64(b, uint64(key.MaxConfigs))
		// Reserved: 8 zero bytes (once a depth bound) keep every name.
		b = binary.LittleEndian.AppendUint64(b, 0)
		ext = ".ckpt"
	} else {
		b = append(b, key.RootKey...)
	}
	sum := sha256.Sum256(b)
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+ext)
}

// appendField appends p with a u64 length prefix.
func appendField(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
	return append(b, p...)
}

// SetLog redirects the store's diagnostics (corruption, I/O failures);
// nil silences them.
func (s *shelf) SetLog(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// Dir returns the store's root directory.
func (s *shelf) Dir() string { return s.dir }

// pathLock is one file's lock; holders counts those holding or waiting
// for it and is guarded by shelf.mu.
type pathLock struct {
	sync.Mutex
	holders int
}

// lock serializes work on one file; the returned func releases it. The
// map holds an entry only while someone holds or waits for that file's
// lock, so a long-lived store keeps no memory of paths it once touched.
func (s *shelf) lock(path string) func() {
	s.mu.Lock()
	l, ok := s.locks[path]
	if !ok {
		l = &pathLock{}
		s.locks[path] = l
	}
	l.holders++
	s.mu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		s.mu.Lock()
		if l.holders--; l.holders == 0 {
			delete(s.locks, path)
		}
		s.mu.Unlock()
	}
}

// read returns the file's bytes, ok=false when it is absent or unreadable
// (the latter logged).
func (s *shelf) read(path string) (data []byte, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("atlasstore: %sread %s: %v", s.noun, path, err)
		}
		return nil, false
	}
	return data, true
}

// write atomically replaces the file: temp file in the same directory,
// fsync, rename. Failures are logged, never fatal — the in-memory result
// is still correct — and reported as false.
func (s *shelf) write(path string, data []byte) bool {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		s.logf("atlasstore: %swrite %s: %v", s.noun, path, err)
		return false
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		s.logf("atlasstore: %swrite %s: %v", s.noun, path, err)
		return false
	}
	return true
}

// drop logs and deletes a damaged file so the next request starts clean.
// Callers hold the file's lock.
func (s *shelf) drop(path string, err error) {
	s.corrupt.Add(1)
	s.logf("atlasstore: %s%s: %v (%s)", s.noun, filepath.Base(path), err, s.onCorrupt)
	if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
		s.logf("atlasstore: remove %s: %v", path, rmErr)
	}
}

// Stats is a snapshot of the store's operation counters.
type Stats struct {
	// Hits are requests answered by loading a complete artifact.
	Hits int64
	// Misses are requests that found no artifact and built from scratch
	// (persisting the result, complete or truncated).
	Misses int64
	// Resumes are requests that restored a truncated artifact's frontier
	// and extended it instead of re-exploring.
	Resumes int64
	// Evictions are artifact files replaced by a newer state (truncated →
	// complete, or truncated → deeper truncated).
	Evictions int64
	// Corrupt counts artifacts that failed checksum/format validation and
	// were deleted for rebuild.
	Corrupt int64
	// Refused are requests answered with the complete-or-refused
	// contract's refusal — including persistent refusals decided from a
	// stored artifact's header without re-exploring.
	Refused int64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	sh, err := openShelf(dir, false)
	if err != nil {
		return nil, err
	}
	return &Store{shelf: sh}, nil
}

// Stats returns the cumulative operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Resumes:   s.resumes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		Refused:   s.refused.Load(),
	}
}

// lineage is the identity of pr's exploration from root: what the
// artifact's file name and header are derived from. The budget is
// deliberately not part of it.
func lineage(pr model.Protocol, root *model.Config) RunKey {
	return RunKey{Protocol: pr.Name(), N: pr.N(), RootKey: root.KeyBytes()}
}

// GetAtlas implements explore.AtlasBackend: answer the atlas request from
// disk when possible, build-and-persist when not, honouring BuildAtlas's
// complete-or-refused contract exactly. Store trouble (unwritable
// directory, I/O errors) degrades to building in memory — the store never
// fails a query it could answer by computing.
func (s *Store) GetAtlas(pr model.Protocol, root *model.Config, opt explore.Options) (*explore.Atlas, bool) {
	opt = opt.Normalized()
	if opt.MaxConfigs >= math.MaxInt32 {
		// Mirror BuildAtlas's refusal without touching disk.
		s.refused.Add(1)
		return nil, false
	}
	key := lineage(pr, root)
	path := s.file(key)
	defer s.lock(path)()

	art := s.load(key, path)
	if art != nil && art.Snap.Complete {
		if art.Snap.Len() > opt.MaxConfigs {
			// Persistent refusal, decided from the header: the exhausted
			// reachable set is known to exceed this budget.
			s.refused.Add(1)
			return nil, false
		}
		a, err := explore.LoadAtlas(pr, root, art.Snap)
		if err != nil {
			s.drop(path, err)
		} else {
			s.hits.Add(1)
			return a, true
		}
		art = nil
	}

	a, _, st := s.extend(pr, root, key, path, art, opt)
	// Each request lands in exactly one outcome counter: hit (loaded),
	// resume (frontier extended), miss (built from scratch), refused
	// (answered without productive work). Whether a miss or resume ends
	// in an atlas or a refusal is visible in the returned ok, not double-
	// counted here.
	switch {
	case st.Resumed && st.NewlyExpanded > 0:
		s.resumes.Add(1)
	case st.Resumed:
		s.refused.Add(1) // restored state already saturates this budget
	default:
		s.misses.Add(1)
	}
	return a, a != nil
}

// DeepenStats reports what one Deepen call did to a lineage's artifact.
type DeepenStats struct {
	// Nodes is the number of admitted configurations after the call.
	Nodes int
	// Expanded is the number of configurations whose successor lists are
	// closed after the call.
	Expanded int
	// NewlyExpanded is the number of configurations expanded *by this
	// call* — zero when the artifact already covered the request, and
	// never includes re-expansion of a previously persisted node.
	NewlyExpanded int
	// Complete reports that the reachable set is exhausted.
	Complete bool
	// Resumed reports that the call started from a persisted frontier
	// rather than from scratch.
	Resumed bool
}

// Deepen is the incremental-deepening entry point: explore the lineage's
// reachable graph under opt's budget, resuming from the persisted frontier
// when an artifact exists, and persist the extended state. Unlike
// GetAtlas it answers with the state itself, truncated or not. An artifact
// built at budget b and deepened to b′ expands exactly the nodes a one-shot
// exploration at b′ expands past those b expanded — nothing is
// re-expanded — and the resulting state is byte-identical to that one-shot
// exploration's. The returned snapshot is the persisted state; the error
// is always nil.
func (s *Store) Deepen(pr model.Protocol, root *model.Config, opt explore.Options) (*explore.AtlasSnapshot, DeepenStats, error) {
	key := lineage(pr, root)
	path := s.file(key)
	defer s.lock(path)()

	art := s.load(key, path)
	if art != nil && art.Snap.Complete {
		// Exhausted: nothing a larger budget could add.
		s.hits.Add(1)
		return art.Snap, DeepenStats{
			Nodes: art.Snap.Len(), Expanded: art.Snap.Expanded(),
			Complete: true, Resumed: true,
		}, nil
	}
	_, snap, st := s.extend(pr, root, key, path, art, opt)
	switch {
	case st.Resumed && st.NewlyExpanded > 0:
		s.resumes.Add(1)
	case st.Resumed:
		s.hits.Add(1)
	default:
		s.misses.Add(1)
	}
	return snap, st, nil
}

// extend grows the lineage's builder (restored from art, or fresh) under
// opt's budget, finishes it into a once the reachable set is exhausted (a
// is nil otherwise), and persists snap, the state reached, when the call
// changed it. The caller counts the outcome.
func (s *Store) extend(pr model.Protocol, root *model.Config, key RunKey, path string, art *artifact, opt explore.Options) (a *explore.Atlas, snap *explore.AtlasSnapshot, st DeepenStats) {
	b, resumed := s.builder(pr, root, path, art)
	st = DeepenStats{NewlyExpanded: b.Extend(opt), Resumed: resumed}
	st.Nodes, st.Expanded, st.Complete = b.Len(), b.Expanded(), b.Complete()
	if resumed && st.NewlyExpanded == 0 {
		return nil, art.Snap, st // still truncated: the stored state stands
	}
	if a, _ = b.Finish(); a != nil { // Finish refuses exactly a truncated builder
		snap = a.Snapshot()
	} else {
		snap = b.Snapshot()
	}
	s.save(path, key, snap, resumed)
	return a, snap, st
}

// builder returns the lineage's builder: restored from a truncated
// artifact's frontier (resumed=true), or fresh when there is none or its
// replay fails (dropped as corrupt).
func (s *Store) builder(pr model.Protocol, root *model.Config, path string, art *artifact) (_ *explore.AtlasBuilder, resumed bool) {
	if art != nil {
		b, err := explore.RestoreAtlasBuilder(pr, root, art.Snap)
		if err == nil {
			return b, true
		}
		s.drop(path, err)
	}
	return explore.NewAtlasBuilder(pr, root), false
}

// load reads and validates the lineage's artifact; nil when absent, or
// when corrupt or not this lineage's content (deleted for rebuild).
func (s *Store) load(key RunKey, path string) *artifact {
	data, ok := s.read(path)
	if !ok {
		return nil
	}
	art, err := decodeFor(key, false, data)
	if err != nil {
		s.drop(path, err)
		return nil
	}
	return art
}

// save atomically writes the artifact. replace notes that an older
// artifact is being superseded (counted as an eviction).
func (s *Store) save(path string, key RunKey, snap *explore.AtlasSnapshot, replace bool) {
	if s.write(path, encodeArtifact(&artifact{Key: key, RunCheckpoint: RunCheckpoint{Snap: snap}})) && replace {
		s.evictions.Add(1)
	}
}
