package protocols_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/flpsim/flp/internal/deadstart"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// pinnedKeys maps a protocol (registry name, protogen fixture file, or a
// long-walk or deadstart variant) to the digest keyDigest computes for it.
// Minted over the binary configuration key while the escaped string key and
// enc.Builder still existed, and first pinned (over both encodings) before
// the slice-backed votes/inbox and the carried state keys went in: a
// rewritten State.Key() builder that changes one byte of any
// configuration's identity fails here. The five benor-*.json entries were
// re-minted when generated Ben-Or specs moved onto BenOrDeterministic,
// which writes a slot's votes "p:v,…"; pinnedStreams shows that their
// explorations did not change.
var pinnedKeys = map[string]string{
	"2pc":             "ff42f6aa8608195fcfa6cfa3",
	"3pc":             "30ba021ccf1533a24d7ca27a",
	"benor":           "45dd5367e02bc064ee65ba4c",
	"naivemajority":   "7e50cbdbe55445e81660056f",
	"onethird":        "f96816be8182a963a1f0038c",
	"paxos":           "1ca8c5f778361ad6c89af79c",
	"trivial0":        "27cf42bc2d2fada857f1a8b9",
	"waitall":         "24c5e77407a0a7e85f8dc14f",
	"benor-004.json":  "794852070ff05de583a0498f",
	"benor-006.json":  "8d99832dcd616b84a73ca7a2",
	"benor-011.json":  "794852070ff05de583a0498f",
	"benor-013.json":  "d7ddfc54b5437bd30dbdda7c",
	"benor-018.json":  "0c0b719abe30ccd4776651c6",
	"table-000.json":  "b0bbbd15be1ee2b88104ff79",
	"table-001.json":  "154ba5dd9e284aae3fedbdef",
	"table-002.json":  "99b6eafa4b083b1bc281f2a5",
	"table-003.json":  "fbc0d4b731316607a697ab5c",
	"table-005.json":  "186850089edb5477ab2f79c7",
	"table-007.json":  "bb8ab247e83d6069c07cb24b",
	"table-008.json":  "d36d950423895547cdd5018b",
	"table-009.json":  "50e59877515e178422ff9999",
	"table-010.json":  "f7a2e8bd110ee22f2c1f4e95",
	"table-012.json":  "860e9a8a6e24760c6a25415d",
	"table-014.json":  "51f5bd6af87cabb4ce8a60be",
	"table-015.json":  "5845e7c9e6bb6ad3ff772e0c",
	"table-016.json":  "59216f68b87ab1281eb160f6",
	"table-017.json":  "30f81ae3ff65310c2a7db1e7",
	"table-019.json":  "3b2ff34125373732e43e93aa",
	"onethird-rounds": "57a0959df4750fe2ddd03f9b",
	"benor-rounds":    "1802c40d34b0869a38197b9d",
	"deadstart-3":     "4278c1a6598996e55414c493",
	"deadstart-5":     "b40209d3e858bfadc694a27b",
}

// keyDigest hashes KeyBytes() of the first bfs configurations reachable
// from pr's initial configuration on in, in breadth-first order
// (events in model.Events order, no-op null events skipped), followed by
// the configurations of a walk-step pseudo-random walk from the same root,
// which reaches the later rounds (inbox pruning, multi-digit round
// numbers) that a shallow BFS does not.
func keyDigest(pr model.Protocol, in model.Inputs, bfs, walk int) string {
	h := sha256.New()
	add := func(c *model.Config) {
		h.Write(c.KeyBytes())
		h.Write([]byte{0})
	}
	root := model.MustInitial(pr, in)
	seen := map[string]bool{string(root.KeyBytes()): true}
	queue := []*model.Config{root}
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		add(c)
		for _, e := range model.Events(c) {
			if len(queue) >= bfs {
				break
			}
			nc := model.Expand(pr, c, e)
			if nc == nil || seen[string(nc.KeyBytes())] {
				continue
			}
			seen[string(nc.KeyBytes())] = true
			queue = append(queue, nc)
		}
	}
	c, x := root, uint64(0x9e3779b97f4a7c15)
	for i := 0; i < walk; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		evs := model.Events(c)
		c = model.MustApply(pr, c, evs[x%uint64(len(evs))])
		add(c)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func mixedInputs(n int) model.Inputs {
	in := make(model.Inputs, n)
	for p := range in {
		in[p] = model.Value((p + 1) / 2 % 2) // 0 1 1 0 0 1 1 …
	}
	return in
}

func TestStateKeysPinned(t *testing.T) {
	check := func(id string, pr model.Protocol, in model.Inputs, bfs, walk int) {
		t.Helper()
		want, ok := pinnedKeys[id]
		if !ok {
			t.Errorf("%s: no pinned digest", id)
			return
		}
		if got := keyDigest(pr, in, bfs, walk); got != want {
			t.Errorf("%s: key digest %s, pinned %s — a state, message or configuration key changed", id, got, want)
		}
	}
	for _, name := range protocols.Names() {
		n := 3
		if name == "onethird" {
			n = 4
		}
		factory, _ := protocols.Lookup(name)
		pr, err := factory(n)
		if err != nil {
			t.Fatal(err)
		}
		check(name, pr, mixedInputs(n), 2000, 600)
	}
	files, fixtures, err := enginetest.LoadDir(enginetest.CorpusDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 20 {
		t.Fatalf("%d protogen fixtures, want 20", len(fixtures))
	}
	for i, fx := range fixtures {
		factory, _ := protocols.Lookup(fx.Name)
		pr, err := factory(0)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fx.InputValues()
		if err != nil {
			t.Fatal(err)
		}
		check(files[i], pr, in, 2000, 600)
	}
	// Long walks only: the round protocols past round 10, where the inbox
	// holds slots whose decimal round numbers sort differently as strings
	// than as integers.
	check("onethird-rounds", protocols.NewOneThirdRule(4), mixedInputs(4), 1, 6000)
	check("benor-rounds", protocols.NewBenOrDeterministic(3, 1), mixedInputs(3), 1, 6000)
	// The Section 4 protocol's states key their heard sets and stage-2
	// reports field by field; pinned so a rewritten builder keeps the bytes.
	check("deadstart-3", deadstart.New(3), mixedInputs(3), 2000, 600)
	check("deadstart-5", deadstart.New(5), mixedInputs(5), 2000, 600)
}

// TestSharedStatesParallelExplore expands the protocols whose states share
// slices (votes, inbox slots, promise and learner lists) and whose
// configurations share message records on eight pool workers, so the race
// detector sees every sibling step of one parent run concurrently; the
// visit stream must be the sequential engine's.
func TestSharedStatesParallelExplore(t *testing.T) {
	for _, pr := range []model.Protocol{
		protocols.NewOneThirdRule(4), protocols.NewBenOrDeterministic(3, 1),
		protocols.NewPaxosSynod(3), protocols.NewThreePhaseCommit(3), protocols.NewNaiveMajority(4),
	} {
		stream := func(workers int) string {
			h := sha256.New()
			explore.Explore(pr, model.MustInitial(pr, mixedInputs(pr.N())), explore.Options{MaxConfigs: 1500, Workers: workers}, nil,
				func(c *model.Config, _ int, _ func() model.Schedule) bool {
					h.Write(c.KeyBytes())
					return false
				})
			return hex.EncodeToString(h.Sum(nil)[:12])
		}
		if seq, par := stream(1), stream(8); seq != par {
			t.Errorf("%s: visit stream %s at 8 workers, %s sequentially", pr.Name(), par, seq)
		}
	}
}

// pinnedStreams maps each generated Ben-Or fixture to the digest
// streamDigest computes for it: what an exploration of the fixture sees,
// independent of how states spell their keys. Together with pinnedKeys it
// separates a change of key bytes (pinnedKeys moves, these stay) from a
// change of behaviour (both move).
var pinnedStreams = map[string]string{
	"benor-004.json": "8787d7e01d4348e76d078c6f",
	"benor-006.json": "b60f92f33baf4271fdaafc70",
	"benor-011.json": "8787d7e01d4348e76d078c6f",
	"benor-013.json": "38c76260b897652c127eb3b1",
	"benor-018.json": "a5188b6115dcabe8f934bc4f",
}

// streamDigest hashes every breadth-first visit of an exploration of pr
// from in at the given budget — its depth, its decision values and the
// schedule that reaches it — followed by the reachable count and whether
// the exploration completed.
func streamDigest(pr model.Protocol, in model.Inputs, budget int) string {
	h := sha256.New()
	complete, visited := explore.Explore(pr, model.MustInitial(pr, in), explore.Options{MaxConfigs: budget, Workers: 1}, nil,
		func(c *model.Config, depth int, path func() model.Schedule) bool {
			fmt.Fprintf(h, "%d %v %s\n", depth, c.DecisionValues(), path())
			return false
		})
	fmt.Fprintf(h, "visited %d complete %v\n", visited, complete)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func TestBenorFixtureStreamsPinned(t *testing.T) {
	files, fixtures, err := enginetest.LoadDir(enginetest.CorpusDir())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, fx := range fixtures {
		want, ok := pinnedStreams[files[i]]
		if !ok {
			continue
		}
		factory, _ := protocols.Lookup(fx.Name)
		pr, err := factory(0)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fx.InputValues()
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(pr, in, fx.MaxConfigs); got != want {
			t.Errorf("%s: stream digest %s, pinned %s — the protocol's behaviour changed", files[i], got, want)
		}
		checked++
	}
	if checked != len(pinnedStreams) {
		t.Errorf("checked %d fixtures, %d pinned", checked, len(pinnedStreams))
	}
}
