package explore_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestLemma3RoutesAgree holds the two routes of each Lemma 3 front end to
// each other: for every case of the oracle's table whose reachable set an
// atlas covers within the case's bounds (the committed protogen corpus
// included; a case's avoided event and stop play no part), and every
// applicable non-no-op event e of its root, the atlas route and the
// direct route over explore.Frontier of the Figure 2 and Figure 3 checks
// must return identical reports. CensusLemma3's two routes must return
// equal results field for field, at the root and at a non-root node of
// its atlas, for every applicable event, no-op null events included. The
// direct route is forced with a depth cap no walk reaches, because
// BuildAtlas refuses any depth cap.
func TestLemma3RoutesAgree(t *testing.T) {
	cases, pairs, censuses := 0, 0, 0
	for _, c := range enginetest.Cases(t) {
		pr, root := c.MustResolve(t)
		if _, ok := explore.BuildAtlas(pr, root, c.Options); !ok {
			continue
		}
		cases++
		direct := c.Options
		direct.MaxDepth = 1 << 20
		for _, e := range model.Events(root) {
			if e.IsNull() && model.IsNoOp(pr, root, e) {
				continue
			}
			d1, err := explore.CheckLemma3Diamond(pr, root, e, c.Options)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.Name, e, err)
			}
			d2, err := explore.CheckLemma3Diamond(pr, root, e, direct)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.Name, e, err)
			}
			if d1 != d2 {
				t.Errorf("%s, %s: Figure 2 atlas route %+v, direct route %+v", c.Name, e, d1, d2)
			}
			f1, err := explore.CheckLemma3Figure3(pr, root, e, c.Options)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.Name, e, err)
			}
			f2, err := explore.CheckLemma3Figure3(pr, root, e, direct)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.Name, e, err)
			}
			if f1 != f2 {
				t.Errorf("%s, %s: Figure 3 atlas route %+v, direct route %+v", c.Name, e, f1, f2)
			}
			if d1.Squares > 0 || f1.Pairs > 0 {
				pairs++
			}
		}
		censuses += censusRoutesAgree(t, c.Name, pr, root, c.Options)
	}
	if cases == 0 || pairs == 0 || censuses == 0 {
		t.Fatalf("routes compared on %d cases, %d (case, event) pairs with a square or pair and %d censuses; the table lost its complete cases", cases, pairs, censuses)
	}
	t.Logf("%d complete cases, %d (case, event) pairs with at least one square or pair, %d censuses", cases, pairs, censuses)
}

// censusRoutesAgree runs CensusLemma3 on both routes for every applicable
// event of root and of the first bivalent non-root node of root's atlas
// (the first non-root node when none is bivalent), and returns the number
// of (C, e) pairs compared. The atlas route's cache is warmed at the root
// first, so the non-root census walks from inside the root's atlas; it
// memoizes nothing, which is how the test knows that route ran.
func censusRoutesAgree(t *testing.T, name string, pr model.Protocol, root *model.Config, opt explore.Options) int {
	t.Helper()
	a, _ := explore.BuildAtlas(pr, root, opt)
	cs := []*model.Config{root}
	if a.Len() > 1 {
		inner := int32(1)
		for id := int32(1); id < int32(a.Len()); id++ {
			if a.ValencyAt(id) == explore.Bivalent {
				inner = id
				break
			}
		}
		cs = append(cs, a.Config(inner))
	}
	direct := opt
	direct.MaxDepth = 1 << 20
	onAtlas, viaFrontier := explore.NewCache(pr, opt), explore.NewCache(pr, direct)
	n := 0
	for _, c := range cs {
		for _, e := range model.Events(c) {
			r1, err := explore.CensusLemma3(pr, c, e, opt, onAtlas)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, e, err)
			}
			r2, err := explore.CensusLemma3(pr, c, e, direct, viaFrontier)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, e, err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s, %s: CensusLemma3 atlas route %+v, Frontier route %+v", name, e, r1, r2)
			}
			n++
		}
	}
	if onAtlas.Len() != 0 {
		t.Errorf("%s: the atlas route memoized %d classifications; it should read every D off the atlas", name, onAtlas.Len())
	}
	return n
}

// TestLemma3CensusOverBudget holds CensusLemma3 to Frontier's truncated
// walk when ℰ is larger than the call's budget, even though the cache's
// atlas covers C: the result is the Frontier route's, field for field,
// and not complete.
func TestLemma3CensusOverBudget(t *testing.T) {
	pr := protocols.NewNaiveMajority(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	e := model.NullEvent(0)
	small := explore.Options{MaxConfigs: 10}
	cache := explore.NewCache(pr, explore.Options{})
	if !cache.TryWarm(root) {
		t.Fatal("naivemajority(3) has no atlas")
	}
	got, err := explore.CensusLemma3(pr, root, e, small, cache)
	if err != nil {
		t.Fatal(err)
	}
	direct := small
	direct.MaxDepth = 1 << 20
	want, err := explore.CensusLemma3(pr, root, e, direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Complete || got.FrontierSize != small.MaxConfigs {
		t.Errorf("over-budget census %+v, Frontier route %+v; want equal, incomplete, |ℰ| = %d", got, want, small.MaxConfigs)
	}
}

// TestAtlasFrontierIsExplore holds the atlas's walk of ℰ to Explore under
// AvoidFilter(&e): from every node of every complete case's atlas up to
// the first 40, for every event applicable there, the members arrive in
// Explore's visit order and each carries Explore's path. CensusLemma3's σ
// on the atlas route is one of those paths.
func TestAtlasFrontierIsExplore(t *testing.T) {
	walks, longest := 0, 0
	for _, c := range enginetest.Cases(t) {
		pr, root := c.MustResolve(t)
		a, ok := explore.BuildAtlas(pr, root, c.Options)
		if !ok {
			continue
		}
		for from := int32(0); from < int32(min(a.Len(), 40)); from++ {
			cfg := a.Config(from)
			for _, e := range model.Events(cfg) {
				order, paths := explore.AtlasFrontier(a, from, e)
				i := 0
				explore.Explore(pr, cfg, c.Options, &e, func(E *model.Config, _ int, path func() model.Schedule) bool {
					if i >= len(order) || !a.Config(order[i]).Equal(E) {
						t.Fatalf("%s, node %d, %s: member %d differs from Explore's visit", c.Name, from, e, i)
					}
					if p := path(); !slices.EqualFunc(p, paths[i], model.Event.Same) {
						t.Fatalf("%s, node %d, %s: member %d has path %v, Explore's is %v", c.Name, from, e, i, paths[i], p)
					}
					longest = max(longest, len(paths[i]))
					i++
					return false
				})
				if i != len(order) {
					t.Fatalf("%s, node %d, %s: the atlas walks %d members, Explore visits %d", c.Name, from, e, len(order), i)
				}
				walks++
			}
		}
	}
	if walks == 0 || longest < 2 {
		t.Fatalf("%d walks, longest path %d: the table lost its complete cases", walks, longest)
	}
	t.Logf("%d walks, longest path %d events", walks, longest)
}
