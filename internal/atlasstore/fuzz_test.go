package atlasstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/protocols"
)

// The two disk decoders under native fuzzing, held to one invariant on
// arbitrary bytes: a *corruptError, or a value with no column longer than
// the input that re-encodes and decodes to equal columns; never a panic.
// Both formats end in a CRC-32C trailer, so nearly every mutation of a seed
// would die in openFrame. Each input is therefore decoded twice: as given,
// and with its trailer recomputed, which lets the fuzzer reach the header,
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

// checkDecoded holds a successful decode of n bytes to the invariant: no
// column of snap is longer than n, and again — the value re-encoded and
// decoded — succeeds and equals got.
func checkDecoded(t *testing.T, n int, snap *explore.AtlasSnapshot, got any, again func() (any, error)) {
	t.Helper()
	if longest := max(len(snap.Depth), len(snap.Parent), len(snap.ParentVia), len(snap.SuccStart),
		len(snap.SuccTo), len(snap.SuccVia), len(snap.Keys), len(snap.Dist0), len(snap.Dist1)); longest > n {
		t.Fatalf("a column of %d entries decoded from %d bytes", longest, n)
	}
	back, err := again()
	if err != nil {
		t.Fatalf("the decoded value re-encodes to bytes that do not decode: %v", err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("the decoded value re-encodes to bytes that decode to different columns")
	}
}

// FuzzDecodeArtifact seeds with every registry protocol's atlas: complete
// (with distance columns) where it closes within 300 configurations, and
// truncated at 40.
func FuzzDecodeArtifact(f *testing.F) {
	for _, name := range protocols.Names() {
		pr, root := registryRoot(f, name)
		if a, ok := explore.BuildAtlas(pr, root, explore.Options{MaxConfigs: 300}); ok {
			f.Add(encodeArtifact(pr.Name(), pr.N(), root.KeyBytes(), a.Snapshot()))
		}
		b := explore.NewAtlasBuilder(pr, root)
		b.Extend(explore.Options{MaxConfigs: 40})
		f.Add(encodeArtifact(pr.Name(), pr.N(), root.KeyBytes(), b.Snapshot()))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resealed(in)} {
			art, err := decodeArtifact(b)
			if err != nil {
				wantCorrupt(t, err)
				continue
			}
			checkDecoded(t, len(b), art.Snap, art, func() (any, error) {
				return decodeArtifact(encodeArtifact(art.ProtoName, art.N, art.RootKey, art.Snap))
			})
		}
	})
}

// FuzzDecodeCheckpoint seeds with ckFixture, truncated and not; inputs are
// decoded against the fixture's key.
func FuzzDecodeCheckpoint(f *testing.F) {
	key, ck := ckFixture()
	f.Add(encodeCheckpoint(key, ck))
	ck.Truncated = false
	f.Add(encodeCheckpoint(key, ck))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resealed(in)} {
			got, err := decodeCheckpoint(key, b)
			if err != nil {
				wantCorrupt(t, err)
				continue
			}
			checkDecoded(t, len(b), got.Snap, got, func() (any, error) {
				return decodeCheckpoint(key, encodeCheckpoint(key, got))
			})
		}
	})
}
