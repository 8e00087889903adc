// Command flpgen mints and inspects generated protocols: it is how the
// conformance corpus under testdata/protogen is produced and refreshed.
//
// Usage:
//
//	flpgen -out testdata/protogen -count 20          # mint a corpus
//	flpgen -dump 'gen:d1:7:ttable.n3....'            # print a spec as JSON
//
// Minting walks seeds through a rotation of dial presets (both templates,
// several shapes), keeps protocols whose reachable census lands in the
// [-min, -max] window (large enough to exercise the engines, small enough
// to stay fast), shrinks every other accepted spec down to the window's
// floor so the corpus covers the explicit-JSON name form as well as the
// compact derived form, and conformance-checks each fixture before
// writing it — a corpus that fails at mint time never lands on disk.
//
// A fixture's fields replay its conformance case exactly:
// flpcheck -conformance -protocol <name> -inputs <inputs> -budget <max_configs>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/flpsim/flp/internal/conformance"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

func main() {
	var (
		out    = flag.String("out", filepath.Join("testdata", "protogen"), "directory to write fixtures into")
		count  = flag.Int("count", 20, "fixtures to mint")
		seed   = flag.Uint64("seed", 1, "first generation seed")
		budget = flag.Int("budget", 400, "conformance exploration budget pinned into each fixture")
		minC   = flag.Int("min", 40, "smallest acceptable reachable census")
		maxC   = flag.Int("max", 4000, "largest acceptable reachable census (explorations above it are truncated, which is also acceptable)")
		dump   = flag.String("dump", "", "decode a gen: protocol name and print its spec as JSON")
	)
	flag.Parse()

	if *dump != "" {
		sp, err := protogen.FromName(*dump)
		if err != nil {
			fatalf("%v", err)
		}
		raw, _ := json.MarshalIndent(sp, "", "  ")
		fmt.Println(string(raw))
		return
	}
	mint(*out, *count, *seed, *budget, *minC, *maxC)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flpgen: "+format+"\n", args...)
	os.Exit(1)
}

// presets is the dial rotation the corpus draws from: both templates,
// small and mid process counts, sparse and dense tables, ring and
// broadcast traffic shapes all end up represented.
func presets() []protogen.Dials {
	return []protogen.Dials{
		protogen.DefaultDials(3),
		{Template: protogen.TemplateTable, N: 2, Phases: 3, Regs: 2, Alphabet: 2, Density: 90, MaxSends: 2},
		{Template: protogen.TemplateTable, N: 4, Phases: 2, Regs: 2, Alphabet: 2, Density: 40, MaxSends: 1},
		{Template: protogen.TemplateTable, N: 3, Phases: 4, Regs: 1, Alphabet: 1, Density: 75, MaxSends: 3, DecShape: 2},
		{Template: protogen.TemplateBenOr, N: 2, MaxRound: 1},
		{Template: protogen.TemplateTable, N: 3, Phases: 2, Regs: 3, Alphabet: 3, Density: 55, MaxSends: 2, DecShape: 3},
		{Template: protogen.TemplateBenOr, N: 2, MaxRound: 2},
	}
}

// census measures the reachable set under the sequential engine: the size
// and whether cap truncated it.
func census(sp protogen.Spec, in model.Inputs, cap int) (int, bool) {
	pr, err := protocols.Resolve(sp.Name(), 0)
	if err != nil {
		fatalf("%v", err)
	}
	root := model.MustInitial(pr, in)
	complete, visited := explore.Explore(pr, root, explore.Options{MaxConfigs: cap, Workers: 1}, nil, nil)
	return visited, complete
}

func mint(dir string, count int, seed uint64, budget, minC, maxC int) {
	pres := presets()
	seen := map[string]bool{}
	s := seed
	written := 0
	for written < count {
		// Rotate presets over *accepted* fixtures so the committed corpus
		// stays balanced across templates and shapes even when some preset
		// rejects most seeds.
		d := pres[written%len(pres)]
		var sp protogen.Spec
		var in model.Inputs
		var size int
		var complete bool
		found := false
		for limit := s + 100000; s < limit; s++ {
			sp = protogen.Derive(s, d)
			in = model.AlternatingInputs(sp.N)
			size, complete = census(sp, in, maxC)
			if (!complete || size >= minC) && !seen[sp.Name()] {
				found = true
				s++
				break
			}
		}
		if !found {
			fatalf("only %d of %d fixtures minted before the seed scan ran out", written, count)
		}
		note := fmt.Sprintf("minted by flpgen: census %d (complete=%v)", size, complete)

		// Every other table fixture is shrunk against a census floor, so
		// the corpus exercises the shrinker's output format (the explicit
		// gen:j1: JSON names) alongside the compact derived names. Ben-Or
		// specs are left as derived: their few knobs all shrink to one
		// identical floor spec, which would just duplicate fixtures.
		if sp.Template == protogen.TemplateTable && written%2 == 1 {
			floor := minC
			stillBig := func(cand protogen.Spec, candIn model.Inputs) bool {
				n, _ := census(cand, candIn, maxC)
				return n >= floor
			}
			sp, in = conformance.Shrink(sp, in, stillBig, 150)
			size, complete = census(sp, in, maxC)
			note = fmt.Sprintf("shrunk to census floor %d by flpgen: census %d (complete=%v)", floor, size, complete)
		}
		if seen[sp.Name()] {
			continue // a shrink collapsed onto an already-committed spec
		}
		seen[sp.Name()] = true

		fx := enginetest.NewFixture(sp, in, budget, note)
		c, err := fx.Case()
		if err != nil {
			fatalf("%v", err)
		}
		if err := conformance.Check(c); err != nil {
			fatalf("seed %d: candidate fixture failed conformance at mint time: %v", s, err)
		}
		name := fmt.Sprintf("%s-%03d.json", sp.Template, written)
		if err := enginetest.SaveFixture(filepath.Join(dir, name), fx); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s: seed %d census %d complete=%v\n", name, s-1, size, complete)
		written++
	}
}
