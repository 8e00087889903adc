package atlasstore

import (
	"bytes"
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
		if len(encodeArtifact(pr.Name(), pr.N(), root.KeyBytes(), snap)) == 0 {
			b.Fatal("empty artifact")
		}
	}
}
