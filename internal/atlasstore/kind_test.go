package atlasstore

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/explore"
)

// A lineage artifact and a run checkpoint are one format told apart by the
// run-cursor flag. These tests pin that each store refuses the other kind
// under its own file names, that a checkpoint in the layout that predates
// the shared format is refused like any corrupt file, and that checkpoint
// file names did not move when the two path functions became one.

// parentCheckpoint is ckFixture as the dedicated checkpoint codec wrote it
// (magic "FLPCKPT", version 1) before checkpoints became artifacts.
var parentCheckpoint = []byte{
	0x46, 0x4c, 0x50, 0x43, 0x4b, 0x50, 0x54, 0x01, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
	0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x09, 0x00, 0x00, 0x00, 0x74, 0x65, 0x73, 0x74, 0x70, 0x72, 0x6f, 0x74, 0x6f, 0x03, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00,
	0xf4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x76, 0x3a, 0x31, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
	0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x10, 0x20, 0x21,
	0x30, 0x31, 0x32, 0x98, 0x4a, 0x6d, 0x64,
}

// TestCursorArtifactUnderLineageName: a run checkpoint carrying exactly a
// lineage's identity, placed under that lineage's .atlas name, is dropped
// and rebuilt — the flag alone makes it the wrong kind.
func TestCursorArtifactUnderLineageName(t *testing.T) {
	pr, root := registryRoot(t, "naivemajority")
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLog(t.Logf)
	key := lineage(pr, root)
	_, ck := ckFixture()
	path := s.file(key)
	if err := os.WriteFile(path, encodeRun(key, ck), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := explore.Options{MaxConfigs: 2000}
	want, ok := explore.BuildAtlas(pr, root, opt)
	if !ok {
		t.Fatal("fixture root does not close within the budget")
	}
	a, ok := s.GetAtlas(pr, root, opt)
	if !ok || a.Len() != want.Len() {
		t.Fatalf("GetAtlas over a cursor artifact: ok=%v, want a rebuilt %d-node atlas", ok, want.Len())
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 corrupt and the rebuild counted as a miss", st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if art, err := decodeFor(key, false, data); err != nil || !art.Snap.Complete {
		t.Fatalf("rebuilt file is not the lineage's complete artifact (err %v)", err)
	}
}

// TestLineageArtifactUnderCheckpointName: an artifact without the cursor
// flag, placed under a run's .ckpt name, loads as nil, counts corrupt, and
// is deleted.
func TestLineageArtifactUnderCheckpointName(t *testing.T) {
	key, ck := ckFixture()
	dir := t.TempDir()
	s := openCk(t, dir)
	path := s.file(key)
	if err := os.WriteFile(path, encodeArtifact(&artifact{Key: key, RunCheckpoint: RunCheckpoint{Snap: ck.Snap}}), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(key); got != nil {
		t.Fatalf("a cursorless artifact loaded as a checkpoint: %+v", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Resumes != 0 {
		t.Fatalf("stats %+v, want exactly 1 corrupt", st)
	}
	if f := ckFile(t, dir); f != "" {
		t.Fatalf("refused file not deleted: %s", f)
	}
}

// TestParentFormatCheckpointRefused: a checkpoint in the dedicated layout
// that predates the shared format fails the magic check, so it is dropped
// as corrupt and the next Load is a fresh start.
func TestParentFormatCheckpointRefused(t *testing.T) {
	key, _ := ckFixture()
	dir := t.TempDir()
	s := openCk(t, dir)
	if err := os.WriteFile(s.file(key), parentCheckpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(key); got != nil {
		t.Fatalf("a previous-format checkpoint loaded: %+v", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Skips != 0 {
		t.Fatalf("stats %+v, want exactly 1 corrupt", st)
	}
	if f := ckFile(t, dir); f != "" {
		t.Fatalf("refused checkpoint not deleted: %s", f)
	}
	if got := s.Load(key); got != nil {
		t.Fatalf("load after deletion returned %+v", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Skips != 1 {
		t.Fatalf("stats %+v, want the second load counted as a skip", st)
	}
}

// TestCheckpointFileNamesPinned holds .ckpt names to the ones the dedicated
// checkpoint path function produced, with and without an avoid filter and
// a depth bound.
func TestCheckpointFileNamesPinned(t *testing.T) {
	s := openCk(t, t.TempDir())
	key, _ := ckFixture()
	if got, want := filepath.Base(s.file(key)), "fea7cda3076e2ce934ff0f78a870db9c2b3a0411ebcebc034f9ccc236d176128.ckpt"; got != want {
		t.Errorf("file name %s, want %s", got, want)
	}
	key.Avoid, key.MaxDepth = "p1", 7
	if got, want := filepath.Base(s.file(key)), "7f3bbb280654c2c8b85a8e010ab0593f4b469fcaa0b8b1d54862c72253778597.ckpt"; got != want {
		t.Errorf("file name with avoid and depth bound %s, want %s", got, want)
	}
}
