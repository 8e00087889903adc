package atlasstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// ckFixture builds a small but structurally honest checkpoint: four nodes,
// a completed root level, and a three-node pending level — the shape every
// boundary checkpoint has.
func ckFixture() (RunKey, *RunCheckpoint) {
	msg := model.Message{To: 1, From: 0, Body: "v:1"}
	key := RunKey{
		Protocol:   "testproto",
		N:          3,
		RootKey:    []byte{0x01, 0x02, 0x03},
		Avoid:      "",
		MaxConfigs: 500,
	}
	ck := &RunCheckpoint{
		Snap: &explore.AtlasSnapshot{
			Depth:  []int32{0, 1, 1, 1},
			Parent: []int32{-1, 0, 0, 0},
			ParentVia: []model.Event{
				{},
				{P: 0},
				{P: 1, Msg: &msg},
				{P: 2},
			},
			SuccStart: []int32{0},
			Keys: [][]byte{
				{0x01, 0x02, 0x03},
				{0x10},
				{0x20, 0x21},
				{0x30, 0x31, 0x32},
			},
		},
		Start:     1,
		Truncated: true,
		Expanded:  1,
	}
	return key, ck
}

func openCk(t *testing.T, dir string) *CheckpointStore {
	t.Helper()
	s, err := OpenCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLog(t.Logf)
	return s
}

// ckFile returns the single .ckpt file in dir, or "" when none exists.
func ckFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		return ""
	}
	if len(matches) > 1 {
		t.Fatalf("expected at most one checkpoint file, found %v", matches)
	}
	return matches[0]
}

// TestCheckpointRoundTrip pins the codec: a saved checkpoint loads back
// field-for-field, and the store counts the write and the resume.
func TestCheckpointRoundTrip(t *testing.T) {
	key, ck := ckFixture()
	s := openCk(t, t.TempDir())
	s.Save(key, ck)
	got := s.Load(key)
	if got == nil {
		t.Fatal("Load returned nil for a just-saved checkpoint")
	}
	if got.Start != ck.Start || got.Truncated != ck.Truncated || got.Expanded != ck.Expanded {
		t.Fatalf("scalars diverged: got (%d, %v, %d), want (%d, %v, %d)",
			got.Start, got.Truncated, got.Expanded, ck.Start, ck.Truncated, ck.Expanded)
	}
	if len(got.Snap.Depth) != len(ck.Snap.Depth) {
		t.Fatalf("node count %d, want %d", len(got.Snap.Depth), len(ck.Snap.Depth))
	}
	for i := range ck.Snap.Depth {
		if got.Snap.Depth[i] != ck.Snap.Depth[i] || got.Snap.Parent[i] != ck.Snap.Parent[i] {
			t.Fatalf("node %d columns diverged", i)
		}
		if !got.Snap.ParentVia[i].Same(ck.Snap.ParentVia[i]) {
			t.Fatalf("node %d via %v, want %v", i, got.Snap.ParentVia[i], ck.Snap.ParentVia[i])
		}
		if !bytes.Equal(got.Snap.Keys[i], ck.Snap.Keys[i]) {
			t.Fatalf("node %d key diverged", i)
		}
	}
	if len(got.Snap.SuccStart) != 1 || got.Snap.SuccStart[0] != 0 {
		t.Fatalf("snapshot not truncated-form: SuccStart %v", got.Snap.SuccStart)
	}
	if st := s.Stats(); st.Writes != 1 || st.Resumes != 1 || st.Corrupt != 0 || st.Skips != 0 {
		t.Fatalf("stats %+v, want 1 write / 1 resume", st)
	}
}

// TestCheckpointMissingIsSkip pins the fresh-start path: loading a key
// with no checkpoint returns nil and counts a skip, not an error.
func TestCheckpointMissingIsSkip(t *testing.T) {
	key, _ := ckFixture()
	s := openCk(t, t.TempDir())
	if got := s.Load(key); got != nil {
		t.Fatalf("Load of an absent checkpoint returned %+v", got)
	}
	if st := s.Stats(); st.Skips != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want exactly 1 skip", st)
	}
}

// TestCheckpointCorruptionSweep is the detect-log-delete contract: every
// damaged form must be rejected (never a wrong resume), counted as corrupt,
// and removed so the rerun starts from scratch.
func TestCheckpointCorruptionSweep(t *testing.T) {
	mangle := []struct {
		name string
		fn   func(b []byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"truncated half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated one byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"future version", func(b []byte) []byte { b[8] = 0xEE; return b }},
		{"start flip", func(b []byte) []byte { b[39] ^= 0x04; return b }}, // the Start uvarint
		{"mid column bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b }},
		{"checksum flip", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xDE, 0xAD) }},
	}
	for _, m := range mangle {
		t.Run(m.name, func(t *testing.T) {
			key, ck := ckFixture()
			dir := t.TempDir()
			s := openCk(t, dir)
			s.Save(key, ck)
			path := ckFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.fn(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := s.Load(key); got != nil {
				t.Fatalf("%s: corrupt checkpoint loaded as %+v", m.name, got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("%s: stats %+v, want 1 corrupt", m.name, st)
			}
			if f := ckFile(t, dir); f != "" {
				t.Fatalf("%s: corrupt checkpoint not deleted: %s", m.name, f)
			}
			// The rerun starts from scratch: a fresh load is a skip.
			if got := s.Load(key); got != nil {
				t.Fatalf("%s: load after deletion returned %+v", m.name, got)
			}
		})
	}
}

// TestCheckpointIdentityMismatch pins the cross-check between the file's
// embedded identity and the requested key — the defense against a tampered
// or misplaced file whose name happens to match.
func TestCheckpointIdentityMismatch(t *testing.T) {
	key, ck := ckFixture()
	data := encodeRun(key, ck)
	other := key
	other.MaxConfigs = 9999
	if _, err := decodeRun(other, data); err == nil {
		t.Fatal("decode accepted a checkpoint whose identity does not match the requested run")
	}
	if _, err := decodeRun(key, data); err != nil {
		t.Fatalf("decode rejected the matching identity: %v", err)
	}
}

// TestCheckpointBoundaryInvariant pins the structural checks: a node table
// that is not a breadth-first prefix with a contiguous pending level must
// be rejected as corrupt.
func TestCheckpointBoundaryInvariant(t *testing.T) {
	t.Run("depths out of order", func(t *testing.T) {
		key, ck := ckFixture()
		ck.Snap.Depth = []int32{0, 1, 0, 1}
		if _, err := decodeRun(key, encodeRun(key, ck)); err == nil {
			t.Fatal("decode accepted out-of-order depths")
		}
	})
	t.Run("start mid-level", func(t *testing.T) {
		key, ck := ckFixture()
		ck.Start = 2 // nodes 1..3 share depth 1; starting at 2 splits the level
		if _, err := decodeRun(key, encodeRun(key, ck)); err == nil {
			t.Fatal("decode accepted a start index inside a level")
		}
	})
}

// TestCheckpointClearAndDiscard pins the lifecycle ends: Clear removes a
// finished run's checkpoint silently, Discard removes a replay-rejected one
// and counts it corrupt.
func TestCheckpointClearAndDiscard(t *testing.T) {
	key, ck := ckFixture()
	dir := t.TempDir()
	s := openCk(t, dir)

	s.Save(key, ck)
	s.Clear(key)
	if f := ckFile(t, dir); f != "" {
		t.Fatalf("Clear left %s behind", f)
	}
	s.Clear(key) // idempotent on an absent file

	s.Save(key, ck)
	s.Discard(key, os.ErrInvalid)
	if f := ckFile(t, dir); f != "" {
		t.Fatalf("Discard left %s behind", f)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Writes != 2 {
		t.Fatalf("stats %+v, want 2 writes / 1 corrupt", st)
	}
}

// TestCheckpointSupersede pins that a later boundary's Save replaces the
// earlier one in place: one file per run, always the newest cut.
func TestCheckpointSupersede(t *testing.T) {
	key, ck := ckFixture()
	dir := t.TempDir()
	s := openCk(t, dir)
	s.Save(key, ck)

	msg := model.Message{To: 2, From: 1, Body: "v:0"}
	later := &RunCheckpoint{
		Snap: &explore.AtlasSnapshot{
			Depth:     []int32{0, 1, 1, 1, 2, 2},
			Parent:    []int32{-1, 0, 0, 0, 1, 2},
			ParentVia: []model.Event{{}, {P: 0}, {P: 1, Msg: &msg}, {P: 2}, {P: 0}, {P: 1}},
			SuccStart: []int32{0},
			Keys:      [][]byte{{0x01, 0x02, 0x03}, {0x10}, {0x20}, {0x30}, {0x40}, {0x50}},
		},
		Start:    4,
		Expanded: 4,
	}
	s.Save(key, later)
	got := s.Load(key)
	if got == nil || got.Start != 4 || len(got.Snap.Depth) != 6 {
		t.Fatalf("Load returned %+v, want the superseding checkpoint (start 4, 6 nodes)", got)
	}
}
