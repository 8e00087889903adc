package atlasstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// keyedColumn is eventDict.column as it was when the dictionary was indexed
// by model.Event.Key: the reference the struct-keyed lookup must agree with,
// entry for entry and index for index.
func keyedColumn(events *[]model.Event, idx map[string]int32, evs []model.Event) []int32 {
	out := make([]int32, len(evs))
	for i, e := range evs {
		k := e.Key()
		j, ok := idx[k]
		if !ok {
			j = int32(len(*events))
			*events = append(*events, e)
			idx[k] = j
		}
		out[i] = j
	}
	return out
}

// registrySnapshot explores a registry protocol from registryRoot under a
// budget and returns what the store would persist.
func registrySnapshot(t testing.TB, name string) (model.Protocol, *model.Config, *explore.AtlasSnapshot) {
	pr, root := registryRoot(t, name)
	b := explore.NewAtlasBuilder(pr, root)
	b.Extend(explore.Options{MaxConfigs: 2000})
	return pr, root, b.Snapshot()
}

// registryRoot instantiates a registry protocol at three processes (four
// where it needs them) with alternating inputs.
func registryRoot(t testing.TB, name string) (model.Protocol, *model.Config) {
	factory, _ := protocols.Lookup(name)
	pr, err := factory(3)
	if err != nil {
		if pr, err = factory(4); err != nil {
			t.Fatal(err)
		}
	}
	in := make(model.Inputs, pr.N())
	for p := range in {
		in[p] = model.Value(p & 1)
	}
	return pr, model.MustInitial(pr, in)
}

// lineageBytes renders snap as the lineage artifact Store.save writes.
func lineageBytes(pr model.Protocol, root *model.Config, snap *explore.AtlasSnapshot) []byte {
	return encodeArtifact(&artifact{Key: lineage(pr, root), RunCheckpoint: RunCheckpoint{Snap: snap}})
}

// registrySeeds returns a registry root's atlas snapshots: complete (with
// distance columns) where it closes within 300 configurations, then
// truncated at 40.
func registrySeeds(pr model.Protocol, root *model.Config) []*explore.AtlasSnapshot {
	var snaps []*explore.AtlasSnapshot
	if a, ok := explore.BuildAtlas(pr, root, explore.Options{MaxConfigs: 300}); ok {
		snaps = append(snaps, a.Snapshot())
	}
	b := explore.NewAtlasBuilder(pr, root)
	b.Extend(explore.Options{MaxConfigs: 40})
	return append(snaps, b.Snapshot())
}

// TestArtifactBytesPinned holds the .atlas format to the bytes it had
// before run checkpoints became artifacts with a cursor flag: the SHA-256
// of every registry protocol's encoded snapshots (registrySeeds order), and
// every lineage's file name.
func TestArtifactBytesPinned(t *testing.T) {
	want := map[string]struct {
		file string
		sums []string
	}{
		"2pc": {"f6a3b695e5b0721510cd44bd5f50fbbce371c247fcf6b80044994dc4b1c48778.atlas", []string{
			"998b83c7fd65cb5f254d7aaf2b5f41d8cb0de7452ead1838a7cf27180238344e",
			"d7b78d0e3faf3168d3886cebb6181aa249845ad39b645db598af7bfbc7d0078b"}},
		"3pc": {"ee789531a9544602ade88b5aff8b90984516849758ef5ca36f614977de7c780e.atlas", []string{
			"b4e1cbc778cf305a44cb6d6061e9cfaf9064b78eb622f781c471de0e519b6db6",
			"8f0344f3827919f4325dcbe3e0a4f758c9f8245e8bb625484765a57a0e49f756"}},
		"benor": {"5af6fd68a557f1ed3ce123a586b8a28775df4408db83655d3bd03f40ae10beb2.atlas", []string{
			"d1610c9cf4b44772288f1e05829e7c3194b55059c7b86a1c0eb2d3b8ebcdcb71"}},
		"naivemajority": {"db467f5864b96c377631387a036ea0de14546125f79207bbf29b2f2f59a112cd.atlas", []string{
			"f822563f66e86963ce759fed5fa66352c31531691f18b190d429f601e365f83a",
			"38a73e0cd5553e1643c5d6c24aa58ae276ab77c3cc6abbf8fb043faa4c0c09cf"}},
		"onethird": {"69dfb45bdaf42f784cf1f81696f00afe69c327be2d027e76ce9dbd91612880ea.atlas", []string{
			"f9e76ad6f2c30d69ca82872e6a9b06fbc7252ac03315ece3b2e91d56edf85fb4"}},
		"paxos": {"20b9888a45afd3e2f538b1ec825e21be1400b62f184b4a062a7a8ddb5104a560.atlas", []string{
			"6f01b42977078840a393cbf9a928750e21258de3aef655c090480b1a90df49cd"}},
		"trivial0": {"f3b4ff92363a0b7fa0493576183d78f87aef1911e8d548e41a16cfa17eef495f.atlas", []string{
			"2cbcee6cd86e07a4d7ab44a5bc3ddf9ca9a3c86f47eb1aae8fd23a0d99d277b5",
			"24bffc22b073474dceddf1dabd2a06fb481bb37c0b2e8dd60ddcc6f29ba32435"}},
		"waitall": {"990e981073046d7b2913fad8bb8d42e06d775b65256a5ac0e776ab0bc17c2734.atlas", []string{
			"c9d77242c898ffdff0dcfd0710fa8ab0dcab3d0ddefbed645e906704f265161d",
			"4b6dd7ae6f0b6cc6d4580ecca171e11324bd44e3a3d603097e11adb4269adebf"}},
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range protocols.Names() {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned bytes for this registry protocol", name)
			continue
		}
		pr, root := registryRoot(t, name)
		if got := filepath.Base(s.file(lineage(pr, root))); got != w.file {
			t.Errorf("%s: file name %s, want %s", name, got, w.file)
		}
		snaps := registrySeeds(pr, root)
		if len(snaps) != len(w.sums) {
			t.Errorf("%s: %d snapshots, want %d", name, len(snaps), len(w.sums))
			continue
		}
		for i, snap := range snaps {
			sum := sha256.Sum256(lineageBytes(pr, root, snap))
			if got := hex.EncodeToString(sum[:]); got != w.sums[i] {
				t.Errorf("%s snapshot %d (complete=%v): sha256 %s, want %s", name, i, snap.Complete, got, w.sums[i])
			}
		}
	}
}

// TestEventDictBytesUnchanged holds the event dictionary of every registry
// protocol's atlas — its entries in first-use order and both index columns,
// which is all of an artifact or checkpoint that depends on the lookup — to
// the bytes the Event.Key-indexed dictionary produced.
func TestEventDictBytesUnchanged(t *testing.T) {
	for _, name := range protocols.Names() {
		_, _, snap := registrySnapshot(t, name)
		var dict eventDict
		got := appendI32s(appendI32s(nil, dict.column(snap.ParentVia)), dict.column(snap.SuccVia))
		var ref eventDict
		idx := map[string]int32{}
		want := appendI32s(appendI32s(nil, keyedColumn(&ref.events, idx, snap.ParentVia)), keyedColumn(&ref.events, idx, snap.SuccVia))
		if len(snap.SuccVia) == 0 || len(dict.events) < 2 {
			t.Fatalf("%s: %d edges, %d dictionary entries: nothing to compare", name, len(snap.SuccVia), len(dict.events))
		}
		if !bytes.Equal(dict.appendTo(nil), ref.appendTo(nil)) {
			t.Errorf("%s: dictionary entries differ from the Event.Key-indexed dictionary's", name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: event index columns differ from the Event.Key-indexed dictionary's", name)
		}
	}
}

// BenchmarkEncodeArtifact renders one budgeted paxos(3) atlas — 2,000
// configurations and their edges — to artifact bytes: what Store.save pays
// per cold or deepened request beyond the write itself.
func BenchmarkEncodeArtifact(b *testing.B) {
	pr, root, snap := registrySnapshot(b, "paxos")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(lineageBytes(pr, root, snap)) == 0 {
			b.Fatal("empty artifact")
		}
	}
}
