// Package enginetest is the one oracle every path that answers for a
// reached configuration is held to: the in-process engine at every worker
// count, the atlas builder, the cluster under kills and resumes, the atlas
// store, the serving layer and the conformance harness. It owns, once
// each, the table of cases (Cases), the reference observation of a case
// (Reference: explore.ReferenceExplore's visit stream and counts; the root
// valency from explore.Classify), and one diff per observable
// (DiffStreams, DiffAtlases, DiffValency). An engine's tests supply only a
// factory — a Backend or a ValencyBackend — and run it through Suite or
// ValencySuite.
//
// Like internal/modeltest it is a helper package for tests, and it imports
// only model, explore, protocols and protogen, so the in-package tests of
// any engine built on those can import it.
package enginetest

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// Case is one exploration every engine can be handed. The protocol travels
// by name — a registry key, or a self-describing gen: name — so a cluster's
// workers rebuild it from the name alone, as they do a distexplore.Task.
type Case struct {
	// Name is the case's subtest name.
	Name     string
	Protocol string
	N        int
	Inputs   model.Inputs
	// Prefix is applied to the initial configuration of Inputs; the walk
	// starts where it ends, and paths are relative to that root.
	Prefix model.Schedule
	// Avoid, when set, is never applied: Lemma 3's ℰ.
	Avoid   *model.Event
	Options explore.Options
	// StopAt, when positive, ends the walk at its StopAt-th visit.
	StopAt int

	ref *reference
}

// Resolve builds c's protocol through protocols.Resolve and its root: the
// initial configuration of Inputs with Prefix applied.
func (c Case) Resolve() (model.Protocol, *model.Config, error) {
	pr, err := protocols.Resolve(c.Protocol, c.N)
	if err != nil {
		return nil, nil, err
	}
	root, err := model.Root(pr, c.Inputs, c.Prefix)
	if err != nil {
		return nil, nil, err
	}
	return pr, root, nil
}

// MustResolve is Resolve failing t.
func (c Case) MustResolve(t testing.TB) (model.Protocol, *model.Config) {
	t.Helper()
	pr, root, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return pr, root
}

// Atlasable reports whether an atlas can answer c: an atlas takes neither
// an event filter nor a visit that stops the walk.
func (c Case) Atlasable() bool { return c.Avoid == nil && c.StopAt == 0 }

// RegistryN is each registry protocol's smallest valid size. Cases runs
// every registry protocol at it and fails on one that has no entry, so a
// newly registered protocol cannot go unexamined.
var RegistryN = map[string]int{
	"trivial0":      2,
	"waitall":       3,
	"naivemajority": 3,
	"2pc":           3,
	"3pc":           3,
	"paxos":         3,
	"benor":         2,
	"onethird":      4,
}

var table struct {
	once  sync.Once
	cases []Case
	err   error
}

// Cases returns the case table, built once per process.
func Cases(t testing.TB) []Case {
	t.Helper()
	table.once.Do(func() { table.cases, table.err = buildCases() })
	if table.err != nil {
		t.Fatal(table.err)
	}
	return table.cases
}

func buildCases() ([]Case, error) {
	in3, in4 := model.Inputs{0, 1, 1}, model.Inputs{0, 1, 1, 0}
	budget := func(n int) explore.Options { return explore.Options{MaxConfigs: n} }
	// Registry protocols whole and cut by a budget, then budgets and a depth
	// cap that cut a level in the middle, where the engines expand in
	// ledger-sized chunks (the last seven are the explore-wide shapes).
	cases := []Case{
		{Name: "trivial0", Protocol: "trivial0", N: 3, Inputs: in3},
		{Name: "3pc-budget2000", Protocol: "3pc", N: 3, Inputs: in3, Options: budget(2000)},
		{Name: "paxos-budget600", Protocol: "paxos", N: 3, Inputs: in3, Options: budget(600)},
		{Name: "benor-budget600", Protocol: "benor", N: 3, Inputs: in3, Options: budget(600)},
		{Name: "naivemajority-depth4", Protocol: "naivemajority", N: 3, Inputs: in3, Options: explore.Options{MaxDepth: 4}},
		{Name: "naivemajority-budget137", Protocol: "naivemajority", N: 3, Inputs: in3, Options: budget(137)},
		{Name: "naivemajority4-budget60", Protocol: "naivemajority", N: 4, Inputs: in4, Options: budget(60)},
		{Name: "naivemajority4-budget400", Protocol: "naivemajority", N: 4, Inputs: in4, Options: budget(400)},
		{Name: "naivemajority4-budget1000", Protocol: "naivemajority", N: 4, Inputs: in4, Options: budget(1000)},
		{Name: "paxos-budget60", Protocol: "paxos", N: 3, Inputs: in3, Options: budget(60)},
		{Name: "paxos-budget400", Protocol: "paxos", N: 3, Inputs: in3, Options: budget(400)},
		{Name: "paxos-budget1000", Protocol: "paxos", N: 3, Inputs: in3, Options: budget(1000)},
		{Name: "onethird4-budget1000", Protocol: "onethird", N: 4, Inputs: in4, Options: budget(1000)},
	}
	// Every registry protocol at its smallest size, from the all-zero and
	// the 0,1,1,… inputs, within 500 configurations: the finite ones
	// complete (the largest, naivemajority(3), has 141), the others are
	// cut.
	for _, name := range protocols.Names() {
		n, ok := RegistryN[name]
		if !ok {
			return nil, fmt.Errorf("enginetest: registry protocol %q has no size; extend RegistryN", name)
		}
		for _, in := range []model.Inputs{model.UniformInputs(n, model.V0), oneAfterZero(n)} {
			cases = append(cases, Case{Name: fmt.Sprintf("%s%d-%s", name, n, in), Protocol: name, N: n, Inputs: in, Options: budget(500)})
		}
	}

	// Lemma 3's avoided event, an exploration from a configuration two
	// steps in, and an early stop, on naivemajority(3) from 0,1,1; and a
	// generated protocol under a depth cap.
	nm := Case{Protocol: "naivemajority", N: 3, Inputs: in3}
	pr, root, err := nm.Resolve()
	if err != nil {
		return nil, err
	}
	var prefix model.Schedule
	for c := root; len(prefix) < 2; {
		e := effectful(pr, c)
		prefix, c = append(prefix, e), model.MustApply(pr, c, e)
	}
	avoid := effectful(pr, root)
	gen5 := protogen.Derive(5, protogen.DefaultDials(3))
	cases = append(cases,
		Case{Name: "naivemajority-avoid-budget400", Protocol: nm.Protocol, N: 3, Inputs: in3, Avoid: &avoid, Options: budget(400)},
		Case{Name: "naivemajority-prefix2-budget300", Protocol: nm.Protocol, N: 3, Inputs: in3, Prefix: prefix, Options: budget(300)},
		Case{Name: "naivemajority-stop40", Protocol: nm.Protocol, N: 3, Inputs: in3, StopAt: 40},
		Case{Name: "gen5-depth3-budget250", Protocol: gen5.Name(), N: 3, Inputs: model.AlternatingInputs(3), Options: explore.Options{MaxConfigs: 250, MaxDepth: 3}},
	)

	// Generated protocols of both templates: transition-table shapes
	// (sparse tables, dead phases, asymmetric decision rules) no
	// hand-written protocol has, at budgets that cut some and not others.
	gen := func(kind string, seed uint64, d protogen.Dials, in model.Inputs, max int) {
		sp := protogen.Derive(seed, d)
		cases = append(cases, Case{Name: fmt.Sprintf("gen-%s-seed%d-%s-budget%d", kind, seed, in, max),
			Protocol: sp.Name(), N: sp.N, Inputs: in, Options: budget(max)})
	}
	benor2, benor3 := protogen.DefaultDials(3), protogen.DefaultDials(3)
	benor2.Template, benor2.N, benor2.MaxRound = protogen.TemplateBenOr, 2, 1
	benor3.Template = protogen.TemplateBenOr
	for seed := uint64(1); seed <= 5; seed++ {
		gen("table", seed, protogen.DefaultDials(3), model.AlternatingInputs(3), 1500)
		gen("benor", seed, benor2, model.AlternatingInputs(2), 1500)
		if seed <= 4 {
			gen("table", seed, protogen.DefaultDials(3), model.AlternatingInputs(3), 250)
			gen("benor", seed, benor3, model.AlternatingInputs(3), 250)
		}
	}
	for _, seed := range []uint64{1, 5, 9, 13} {
		gen("table", seed, protogen.DefaultDials(3), oneAfterZero(3), 3000)
	}

	// The committed corpus of generated fixtures.
	names, fixtures, err := LoadDir(CorpusDir())
	if err != nil {
		return nil, err
	}
	if len(fixtures) != corpusSize {
		return nil, fmt.Errorf("enginetest: %d fixtures in %s, want the committed %d", len(fixtures), CorpusDir(), corpusSize)
	}
	for i, fx := range fixtures {
		c, err := fx.Case()
		if err != nil {
			return nil, err
		}
		c.Name = strings.TrimSuffix(names[i], ".json")
		cases = append(cases, c)
	}
	for i := range cases {
		cases[i].ref = new(reference)
	}
	return cases, nil
}

// corpusSize is the number of committed fixtures: the table's last cases.
const corpusSize = 20

// Corpus returns the table's cases from the committed fixture corpus, each
// named after its file.
func Corpus(t testing.TB) []Case {
	cases := Cases(t)
	return cases[len(cases)-corpusSize:]
}

// CorpusDir is the committed fixture corpus, testdata/protogen at the
// module root, found from this file's own path.
func CorpusDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "testdata", "protogen")
}

// effectful returns the first event of c that changes the system state.
func effectful(pr model.Protocol, c *model.Config) model.Event {
	evs := model.Events(c)
	return evs[slices.IndexFunc(evs, func(e model.Event) bool { return !e.IsNull() || !model.IsNoOp(pr, c, e) })]
}

// oneAfterZero is 0,1,1,….
func oneAfterZero(n int) model.Inputs {
	in := model.UniformInputs(n, model.V1)
	in[0] = model.V0
	return in
}
