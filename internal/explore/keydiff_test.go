package explore_test

// The configuration key against the definition it encodes. Section 2 of the
// paper makes a configuration the internal state of each process plus the
// contents of the message buffer; Config.KeyBytes (what every engine, the
// interner and the distexplore wire hash and dedup on) must identify
// exactly that. The sweep holds KeyBytes to modeltest.SameState in both
// directions — equal keys only for the same configuration, and the same
// configuration only under equal keys — over every configuration an
// exploration visits and every successor of one, so a collision the
// engine's own dedup would have hidden is still compared. It runs every
// registry protocol plus generated protogen protocols, at workers 1 and 8,
// so `go test -race` exercises the concurrent key-cache fills of the
// parallel engine.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

const keyDiffBudget = 800

// diffKeyEncodings sweeps the reachable set (budgeted) of every input
// vector of pr and checks KeyBytes equality ⇔ SameState across every pair
// of configurations met, in any sweep.
func diffKeyEncodings(t *testing.T, pr model.Protocol, workers int) {
	t.Helper()
	opt := explore.Options{MaxConfigs: keyDiffBudget, Workers: workers}
	byKey := make(map[string]*model.Config)      // KeyBytes → first configuration with it
	byStates := make(map[string][]*model.Config) // coarse bucket → configurations of distinct keys
	check := func(inp model.Inputs, c *model.Config) {
		// The engine hashed every visited configuration before anything
		// built its key; a successor is keyed here first, then hashed.
		h := fnv.New64a()
		h.Write(c.KeyBytes())
		if got, want := c.Hash(), h.Sum64(); got != want {
			t.Fatalf("inputs %s: Hash() = %#x, FNV-1a(KeyBytes()) = %#x\n%s", inp, got, want, c)
		}
		k := string(c.KeyBytes())
		if prev, ok := byKey[k]; ok {
			if !modeltest.SameState(prev, c) {
				t.Fatalf("inputs %s: equal KeyBytes for different configurations\n%s\n%s", inp, prev, c)
			}
			return
		}
		// SameState implies equal process state keys and buffer size, so a
		// configuration equal to c can only be in c's bucket.
		b := stateBucket(c)
		for _, o := range byStates[b] {
			if modeltest.SameState(o, c) {
				t.Fatalf("inputs %s: one configuration under two KeyBytes\n%s", inp, c)
			}
		}
		byKey[k] = c
		byStates[b] = append(byStates[b], c)
	}
	for _, inp := range model.AllInputs(pr.N()) {
		root := model.MustInitial(pr, inp)
		explore.Explore(pr, root, opt, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
			if !bytes.Equal(c.AppendKey(nil), c.KeyBytes()) {
				t.Fatalf("inputs %s: AppendKey diverges from KeyBytes", inp)
			}
			check(inp, c)
			for _, e := range model.Events(c) {
				if nc := model.Expand(pr, c, e); nc != nil {
					check(inp, nc)
				}
			}
			return false
		})
	}
}

// stateBucket groups configurations by their process state keys and buffer
// size. It is not an encoding: unequal configurations may share a bucket.
func stateBucket(c *model.Config) string {
	var sb strings.Builder
	for p := 0; p < c.N(); p++ {
		sb.WriteString(c.State(model.PID(p)).Key())
		sb.WriteByte(0)
	}
	fmt.Fprint(&sb, c.Buffer().Len())
	return sb.String()
}

// TestKeyEncodingAgreementRegistry runs the differential over every
// registered protocol at its fixture size.
func TestKeyEncodingAgreementRegistry(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for name := range enginetest.RegistryN {
			name := name
			t.Run(testName(name, workers), func(t *testing.T) {
				t.Parallel()
				diffKeyEncodings(t, registryFixture(t, name), workers)
			})
		}
	}
}

// TestKeyEncodingAgreementProtogen runs the differential over generated
// protocols — table automata and Ben-Or-template drawings whose state keys
// and message bodies exercise separator and escape bytes differently from
// the hand-written registry.
func TestKeyEncodingAgreementProtogen(t *testing.T) {
	specs := []protogen.Spec{
		protogen.Derive(1, protogen.DefaultDials(3)),
		protogen.Derive(42, protogen.DefaultDials(3)),
		protogen.Derive(7, protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2}),
	}
	for _, workers := range []int{1, 8} {
		for _, sp := range specs {
			sp := sp
			t.Run(testName(sp.Name(), workers), func(t *testing.T) {
				t.Parallel()
				factory, _ := protocols.Lookup(sp.Name())
				pr, err := factory(0)
				if err != nil {
					t.Fatalf("building %s: %v", sp.Name(), err)
				}
				diffKeyEncodings(t, pr, workers)
			})
		}
	}
}

func testName(base string, workers int) string {
	if workers == 1 {
		return base + "/w1"
	}
	return base + "/w8"
}
