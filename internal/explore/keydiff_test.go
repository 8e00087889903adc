package explore_test

// Differential coverage for the two canonical key encodings of a
// configuration: the binary form (Config.KeyBytes/AppendKey, what every
// engine, the interner and the distexplore wire hash and dedup on) and the
// escaped string form (Config.Key, what traces, fixtures and debugging
// output carry). The encodings must induce the same equality partition —
// no pair of configurations may agree under one encoding and disagree
// under the other. The sweep runs every registry protocol plus generated
// protogen protocols, at workers 1 and 8, so `go test -race` exercises the
// concurrent key-cache fills of the parallel engine.

import (
	"bytes"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

const keyDiffBudget = 800

// diffKeyEncodings sweeps the reachable set (budgeted) of every input
// vector of pr and cross-checks the two encodings at each configuration.
func diffKeyEncodings(t *testing.T, pr model.Protocol, workers int) {
	t.Helper()
	opt := explore.Options{MaxConfigs: keyDiffBudget, Workers: workers}
	byString := make(map[string]string) // string key → binary key
	byBinary := make(map[string]string) // binary key → string key
	for _, inp := range model.AllInputs(pr.N()) {
		root := model.MustInitial(pr, inp)
		explore.Explore(pr, root, opt, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
			sk := c.Key()
			bk := string(c.KeyBytes())
			if got := c.AppendKey(nil); !bytes.Equal(got, []byte(bk)) {
				t.Fatalf("inputs %s: AppendKey diverges from KeyBytes", inp)
			}
			// The two encodings partition identically iff the mapping
			// between them, accumulated across every configuration of every
			// sweep, stays a bijection.
			if prev, ok := byString[sk]; ok {
				if prev != bk {
					t.Fatalf("inputs %s: string key maps to two binary keys\nstring: %q", inp, sk)
				}
			} else {
				byString[sk] = bk
			}
			if prev, ok := byBinary[bk]; ok {
				if prev != sk {
					t.Fatalf("inputs %s: binary key maps to two string keys\nfirst: %q\nsecond: %q", inp, prev, sk)
				}
			} else {
				byBinary[bk] = sk
			}
			return false
		})
	}
	if len(byString) != len(byBinary) {
		t.Fatalf("encoding partitions differ in size: %d string keys vs %d binary keys", len(byString), len(byBinary))
	}
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
// exercise separator and escape bytes differently from the hand-written
// registry.
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
				pr, err := protogen.New(sp)
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
