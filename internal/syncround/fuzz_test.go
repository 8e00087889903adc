package syncround_test

import (
	"math/rand"
	"testing"

	"github.com/flpsim/flp/internal/dls"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/syncround"
)

// FuzzRoundSampler holds the round engine's sampler to its walk: every
// seeded sampler run is a path of the walk. A FloodSet crash pattern (even
// kind) or a DLS drop seed (odd kind) must reach, after each round, a
// configuration whose key the walk of the same system has at that round.
func FuzzRoundSampler(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), int64(7))
	f.Add(uint8(4), uint8(1), uint8(2), uint8(0), int64(3))
	f.Add(uint8(1), uint8(3), uint8(0), uint8(178), int64(5))
	f.Add(uint8(5), uint8(2), uint8(1), uint8(255), int64(9))
	f.Fuzz(func(t *testing.T, kind, size, victim, drop uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var s syncround.System
		var choose func(syncround.Config) syncround.Choice
		if kind%2 == 0 {
			algs := []syncround.Algorithm{syncround.FloodSet{}, syncround.EarlyFloodSet{}, syncround.TruncatedFloodSet{R: 1}}
			alg, n := algs[kind/2%3], 3+int(size%2)
			in := randomInputs(n, r)
			cp := syncround.RandomCrashPattern(n, int(victim%2), alg.Rounds(n, 1), r)
			s, choose = syncround.CrashSystem(alg, in, 1), cp.Choice
		} else {
			opt := dls.Options{N: 3, F: 1, GST: 1 + int(size%4), DropProb: float64(drop) / 255, Seed: seed}
			if kind&2 != 0 {
				opt.CrashRound = map[int]int{int(victim % 3): int(victim/3) % (opt.GST + 2)}
			}
			var err error
			if s, err = dls.System(opt, randomInputs(3, r)); err != nil {
				t.Fatal(err)
			}
			choose = opt.Drops()
		}
		keys := map[int]map[string]bool{}
		s.Walk(func(nd *syncround.Node) bool {
			if keys[nd.Round] == nil {
				keys[nd.Round] = map[string]bool{}
			}
			keys[nd.Round][string(nd.AppendKey(nil))] = true
			return true
		})
		for _, c := range s.Sample(choose) {
			if !keys[c.Round][string(c.AppendKey(nil))] {
				t.Fatalf("the sampled run leaves the walk in round %d at %q", c.Round, c.AppendKey(nil))
			}
		}
	})
}

func randomInputs(n int, r *rand.Rand) model.Inputs {
	in := make(model.Inputs, n)
	for i := range in {
		in[i] = model.Value(r.Intn(2))
	}
	return in
}
