package atlasstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// keyedColumn is eventDict.column indexed by each event's wire bytes
// (model.AppendEvent): the reference the struct-keyed lookup must agree
// with, entry for entry and index for index.
func keyedColumn(events *[]model.Event, idx map[string]int32, evs []model.Event) []int32 {
	out := make([]int32, len(evs))
	for i, e := range evs {
		k := string(model.AppendEvent(nil, e))
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
			"a4e393ad9773f1ce7e1b40f1d9543a27d51a9f74db56aefe2a5d8060b055b39d",
			"70703102eacc3120429622f1dd0faf2014d482bb9040ace9fa193d7c1475ca84"}},
		"3pc": {"ee789531a9544602ade88b5aff8b90984516849758ef5ca36f614977de7c780e.atlas", []string{
			"46280e606b704899c87891aca41d1de8923cc17294b386b6d39d48a483651231",
			"11f2fa6b9e5878f4f2b3b85fb2eef8376551765bbbc154db7693e372982e433c"}},
		"benor": {"5af6fd68a557f1ed3ce123a586b8a28775df4408db83655d3bd03f40ae10beb2.atlas", []string{
			"5c178128c61f5f1168bf079e85fd279854c76b313b0f3ba3b0945357e33cb792"}},
		"naivemajority": {"db467f5864b96c377631387a036ea0de14546125f79207bbf29b2f2f59a112cd.atlas", []string{
			"10eea76ffd5b54780e25519862d1c40c0584cc9b2a2cbac3c1ed52a63a090d6d",
			"0020e94033fe375aa2702273f424b9205d046ba5725207aa71190b4f047b2e04"}},
		"onethird": {"69dfb45bdaf42f784cf1f81696f00afe69c327be2d027e76ce9dbd91612880ea.atlas", []string{
			"0bf3bc7ac22e9bffcf2b9257223372855195e72265da5d0060b32c9090cefb20"}},
		"paxos": {"20b9888a45afd3e2f538b1ec825e21be1400b62f184b4a062a7a8ddb5104a560.atlas", []string{
			"6a865aac609c6bb054eef404018eaf1704d4efb7e8ff748f43f084001e3a57ca"}},
		"trivial0": {"f3b4ff92363a0b7fa0493576183d78f87aef1911e8d548e41a16cfa17eef495f.atlas", []string{
			"b96381eb2fadbb0991f75c802a38d186e9d7978f34da1b5f04de41c77f014df1",
			"016c8955bdc36a7555383bf010d8096a66a039509dfd5fecc2fecf44d8e8905a"}},
		"waitall": {"990e981073046d7b2913fad8bb8d42e06d775b65256a5ac0e776ab0bc17c2734.atlas", []string{
			"2300270a79188929850fe41967683270eb7d676d355a42abf702bafa2e80a79e",
			"644f9378dac321f8269788946eb3f3a610c2ee6dee2dafc465c468d3e17951c9"}},
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

// columnsDigest is the SHA-256 of what decoding an artifact yields —
// identity, run cursor and every column, events as model.AppendEvent bytes
// — in a layout of its own, so that it holds across artifact formats.
func columnsDigest(a *artifact) string {
	var b []byte
	num := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	field := func(p []byte) { num(len(p)); b = append(b, p...) }
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	i32s := func(xs []int32) {
		num(len(xs))
		for _, x := range xs {
			num(int(x))
		}
	}
	events := func(es []model.Event) {
		num(len(es))
		for _, e := range es {
			field(model.AppendEvent(nil, e))
		}
	}
	field([]byte(a.Key.Protocol))
	num(a.Key.N)
	field(a.Key.RootKey)
	field([]byte(a.Key.Avoid))
	num(a.Key.MaxConfigs)
	num(0) // the reserved slot
	flag(a.Run)
	num(a.Start)
	flag(a.Truncated)
	num(a.Expanded)
	snap := a.Snap
	i32s(snap.Depth)
	i32s(snap.Parent)
	events(snap.ParentVia)
	i32s(snap.SuccStart)
	i32s(snap.SuccTo)
	events(snap.SuccVia)
	num(len(snap.Keys))
	for _, k := range snap.Keys {
		field(k)
	}
	flag(snap.Complete)
	i32s(snap.Dist0)
	i32s(snap.Dist1)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestArtifactColumnsPinned holds what every registry protocol's seed
// artifacts (registrySeeds order) and ckFixture's checkpoint decode to,
// independent of the bytes that carry it: an encoding change that loses or
// alters a column fails here, while TestArtifactBytesPinned only says that
// the bytes moved.
func TestArtifactColumnsPinned(t *testing.T) {
	want := map[string]string{
		"2pc":           "c0dae59eedd2ca0480623b225901be3bb829f0f013fbc1274a8660693cf45262",
		"3pc":           "b56aded17edf2b70b125ab65535d9f61e750c21969e77c10b5a19d0103fcf208",
		"benor":         "5b6ac07846011c016b33f85c30a5f749169f18c3561d409711592f76fae72979",
		"naivemajority": "14c572c26ede7ef90d451ca43e694ac4d685bacb1f050ee90b476d9f5f462d88",
		"onethird":      "1bf0dd34b662f66cd3612864f5f83767b3e2e8c17bd276664c629a65aec991d8",
		"paxos":         "af7b26bec8884abaab5e8e13467b621f666359b69d16aa74ce8d31b681e2ca4e",
		"trivial0":      "a4d1e35f9e33712a41fc9ebf4a608c8a481dadbe67a0a36e9c66f79eba656903",
		"waitall":       "bc99872b5970841bf4596b07d85cc9c5486debec329da5e1f6c625827213daea",
		"ckFixture":     "a4b77e986938103e681eff043d8a8bc86da31320c3ce22893bf35d0ec25064b5",
	}
	got := map[string]string{}
	for _, name := range protocols.Names() {
		pr, root := registryRoot(t, name)
		var sums []byte
		for _, snap := range registrySeeds(pr, root) {
			a, err := decodeFor(lineage(pr, root), false, lineageBytes(pr, root, snap))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sums = append(sums, columnsDigest(a)...)
		}
		sum := sha256.Sum256(sums)
		got[name] = hex.EncodeToString(sum[:])
	}
	key, ck := ckFixture()
	a, err := decodeFor(key, true, encodeRun(key, ck))
	if err != nil {
		t.Fatal(err)
	}
	got["ckFixture"] = columnsDigest(a)
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: decoded columns sha256 %s, want %s", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d artifacts digested, %d pinned", len(got), len(want))
	}
}

// dictBytes is a dictionary's entries as the artifact writes them.
func dictBytes(events []model.Event) []byte {
	var b []byte
	for _, e := range events {
		b = model.AppendEvent(b, e)
	}
	return b
}

// TestEventDictBytesUnchanged holds the event dictionary of every registry
// protocol's atlas — its entries in first-use order and both index columns,
// which is all of an artifact or checkpoint that depends on the lookup — to
// the bytes a dictionary indexed by wire bytes produces.
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
		if !bytes.Equal(dictBytes(dict.events), dictBytes(ref.events)) {
			t.Errorf("%s: dictionary entries differ from the wire-byte-indexed dictionary's", name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: event index columns differ from the wire-byte-indexed dictionary's", name)
		}
	}
}

// BenchmarkDecodeArtifact is the read side of BenchmarkEncodeArtifact. The
// paxos(3) atlas at 2,000 configurations is truncated, so it is decoded
// only, as a resume reads it; naivemajority(3)'s complete atlas is decoded
// and loaded, as a warm hit reads it.
func BenchmarkDecodeArtifact(b *testing.B) {
	pr, root, snap := registrySnapshot(b, "paxos")
	b.Run("paxos-2000", func(b *testing.B) {
		data := lineageBytes(pr, root, snap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodeFor(lineage(pr, root), false, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naivemajority-complete", func(b *testing.B) {
		pr, root := registryRoot(b, "naivemajority")
		full, ok := explore.BuildAtlas(pr, root, explore.Options{MaxConfigs: 2000})
		if !ok {
			b.Fatal("naivemajority(3) does not close within 2,000 configurations")
		}
		data := lineageBytes(pr, root, full.Snapshot())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := decodeFor(lineage(pr, root), false, data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := explore.LoadAtlas(pr, root, a.Snap); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// artifactSize is the capacity encodeArtifact allocates for a: encodedSize
// over a's own event dictionary.
func artifactSize(a *artifact) int {
	var dict eventDict
	dict.column(a.Snap.ParentVia)
	dict.column(a.Snap.SuccVia)
	return encodedSize(a, dict.events)
}

// checkSizedOnce fails unless a encodes into the one buffer artifactSize
// sizes, and fills it: a size short by a byte would make append regrow the
// buffer, and a size long by one would leave a slack that could hide a
// later shortfall.
func checkSizedOnce(t *testing.T, what string, a *artifact) {
	t.Helper()
	b, size := encodeArtifact(a), artifactSize(a)
	if len(b) != size || cap(b) != size {
		t.Fatalf("%s: %d bytes encoded into a buffer of capacity %d, %d sized", what, len(b), cap(b), size)
	}
}

// TestArtifactSizedOnce holds encodeArtifact to one allocation of its
// output over every registry protocol's seed artifacts (complete with
// distances, and truncated) and ckFixture's run checkpoint with and without
// its ledger flag, under an avoided event, so that the run cursor, Avoid and
// a delivery in the dictionary are all sized.
func TestArtifactSizedOnce(t *testing.T) {
	for _, name := range protocols.Names() {
		pr, root := registryRoot(t, name)
		for i, snap := range registrySeeds(pr, root) {
			checkSizedOnce(t, fmt.Sprintf("%s seed %d (complete=%v)", name, i, snap.Complete),
				&artifact{Key: lineage(pr, root), RunCheckpoint: RunCheckpoint{Snap: snap}})
		}
	}
	key, ck := ckFixture()
	key.Avoid = string(model.AppendEvent(nil, ck.Snap.ParentVia[2]))
	for _, truncated := range []bool{true, false} {
		ck.Truncated = truncated
		checkSizedOnce(t, fmt.Sprintf("ckFixture (truncated=%v)", truncated), &artifact{Key: key, Run: true, RunCheckpoint: *ck})
	}
}

// TestReadKeyTableInPlace holds the key table, whose offsets are read in
// place from the frame, to its checks: keys are the blob's slices between
// consecutive offsets, and non-monotone offsets, an offset past the blob, a
// blob length that is not what remains, and a short offset table are all
// corrupt.
func TestReadKeyTableInPlace(t *testing.T) {
	blob := []byte("abcdefghi")
	table := func(offs ...uint64) []byte {
		var b []byte
		for _, o := range offs {
			b = binary.LittleEndian.AppendUint64(b, o)
		}
		return append(b, blob...)
	}
	r := model.NewReader(table(0, 3, 4, 6, 9))
	keys, err := readKeyTable(&r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(keys, []byte("|")); string(got) != "abc|d|ef|ghi" {
		t.Fatalf("keys %q, want abc|d|ef|ghi", got)
	}
	for _, c := range []struct {
		name string
		in   []byte
		V    int
		want string
	}{
		{"non-monotone offsets", table(0, 4, 3, 6, 9), 4, "key offsets not monotonic"},
		{"an offset past the blob", table(0, 3, 12, 6, 9), 4, "key offsets not monotonic"},
		{"the first offset past the blob", table(12, 12, 9), 2, "key offsets not monotonic"},
		{"a blob length that is not what remains", table(0, 3, 4, 6, 8), 4, "key blob of 8 bytes, 9 remain"},
		{"a short offset table", table(0, 9)[:12], 1, "columns: key offsets"},
	} {
		r := model.NewReader(c.in)
		_, err := readKeyTable(&r, c.V)
		var ce *corruptError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want a corruptError naming %q", c.name, err, c.want)
		}
	}
}
