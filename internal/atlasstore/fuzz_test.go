package atlasstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/protocols"
)

// The disk decoder under native fuzzing, held to one invariant on arbitrary
// bytes: a *corruptError, or a value with no column longer than the input
// that re-encodes and decodes to equal columns; never a panic. Both file
// kinds — atlas artifacts and run checkpoints — are this one format, and it
// ends in a CRC-32C trailer, so nearly every mutation of a seed would die
// in openFrame. Each input is therefore decoded twice: as given, and with
// its trailer recomputed, which lets the fuzzer reach the header,
// dictionary, column and key-table checks behind the checksum.

// resealed returns b with its last four bytes replaced by the CRC-32C of
// the rest.
func resealed(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// wantCorrupt fails unless a failed decode reports a *corruptError, the
// kind the store answers by deleting and rebuilding.
func wantCorrupt(t *testing.T, err error) {
	t.Helper()
	var ce *corruptError
	if !errors.As(err, &ce) {
		t.Fatalf("decode failed without a corruptError: %T %v", err, err)
	}
}

// FuzzDecodeArtifact seeds with every registry protocol's atlas — complete
// (with distance columns) where it closes within 300 configurations, and
// truncated at 40 — and with ckFixture's run checkpoint, its ledger
// truncated and not.
func FuzzDecodeArtifact(f *testing.F) {
	for _, name := range protocols.Names() {
		pr, root := registryRoot(f, name)
		for _, snap := range registrySeeds(pr, root) {
			f.Add(lineageBytes(pr, root, snap))
		}
	}
	key, ck := ckFixture()
	f.Add(encodeRun(key, ck))
	ck.Truncated = false
	f.Add(encodeRun(key, ck))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resealed(in)} {
			art, err := decodeArtifact(b)
			if err != nil {
				wantCorrupt(t, err)
				continue
			}
			snap := art.Snap
			if longest := max(len(snap.Depth), len(snap.Parent), len(snap.ParentVia), len(snap.SuccStart),
				len(snap.SuccTo), len(snap.SuccVia), len(snap.Keys), len(snap.Dist0), len(snap.Dist1)); longest > len(b) {
				t.Fatalf("a column of %d entries decoded from %d bytes", longest, len(b))
			}
			back, err := decodeArtifact(encodeArtifact(art))
			if err != nil {
				t.Fatalf("the decoded value re-encodes to bytes that do not decode: %v", err)
			}
			if !reflect.DeepEqual(back, art) {
				t.Fatalf("the decoded value re-encodes to bytes that decode to different columns")
			}
		}
	})
}
