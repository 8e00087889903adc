package protocols_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/flpsim/flp/internal/conformance"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// pinnedKeys maps a protocol (registry name, or protogen fixture file) to
// the digest keyDigest computes for it. Minted before the slice-backed
// votes/inbox and the carried state keys went in: a rewritten Key() builder
// that changes one byte of any configuration's identity fails here.
var pinnedKeys = map[string]string{
	"2pc":             "11a26ee5f5ff90eedb89a8c2",
	"3pc":             "0b618f1f4590df320fd6d026",
	"benor":           "279f5b31d2d493f23004f772",
	"naivemajority":   "0c692248c011276e5e3541bd",
	"onethird":        "91bb284e12c01b9ba2d93cb0",
	"paxos":           "1684af646907aa28f8d4c83e",
	"trivial0":        "2c5d6652852d5fbbb4f0c913",
	"waitall":         "7877900dcf7ef59485f1b144",
	"benor-004.json":  "f52948700909d60b4aeac7b5",
	"benor-006.json":  "4a2c62af8e4e1959d9881749",
	"benor-011.json":  "f52948700909d60b4aeac7b5",
	"benor-013.json":  "9152e02a7d72fe5e4916302b",
	"benor-018.json":  "6f1651e55190b1610ab6d242",
	"table-000.json":  "605b8080ff00081ed5a59857",
	"table-001.json":  "a37b323d7cc0f591ac9c4254",
	"table-002.json":  "e5192d5b0295a7459943d498",
	"table-003.json":  "1a486ddb6191fc5d5c10db43",
	"table-005.json":  "38186ca2c5b013b58c4a3702",
	"table-007.json":  "15cc0b1a886f26728bfa51cf",
	"table-008.json":  "c2a7437dcb8c80588b705d18",
	"table-009.json":  "0826b8976f0c9ff21466d0d0",
	"table-010.json":  "a244c4644cda57afad0b629b",
	"table-012.json":  "86febffa310c2cea5987e291",
	"table-014.json":  "e2e56b625f22e2e1803dd717",
	"table-015.json":  "6e1228fdd50c621c0146c188",
	"table-016.json":  "8c8d981de6794b77860027b1",
	"table-017.json":  "01ee13c45adfdfe6e68c64e1",
	"table-019.json":  "45b2328907180acc8a7bbb9c",
	"onethird-rounds": "8aff89fc1485b09d5509ce50",
	"benor-rounds":    "dedf6583b08f5a7539fb7f8a",
}

// keyDigest hashes Key() and KeyBytes() of the first bfs configurations
// reachable from pr's initial configuration on in, in breadth-first order
// (events in model.Events order, no-op null events skipped), followed by
// the configurations of a walk-step pseudo-random walk from the same root,
// which reaches the later rounds (inbox pruning, multi-digit round
// numbers) that a shallow BFS does not.
func keyDigest(pr model.Protocol, in model.Inputs, bfs, walk int) string {
	h := sha256.New()
	add := func(c *model.Config) {
		h.Write([]byte(c.Key()))
		h.Write([]byte{0})
		h.Write(c.KeyBytes())
		h.Write([]byte{0})
	}
	root := model.MustInitial(pr, in)
	seen := map[string]bool{root.Key(): true}
	queue := []*model.Config{root}
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		add(c)
		for _, e := range model.Events(c) {
			if len(queue) >= bfs {
				break
			}
			nc := model.Expand(pr, c, e)
			if nc == nil || seen[nc.Key()] {
				continue
			}
			seen[nc.Key()] = true
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
	files, fixtures, err := conformance.LoadDir("../../testdata/protogen")
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
