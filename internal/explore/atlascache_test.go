package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// countingProtocol wraps a protocol and counts Step calls — a proxy for
// exploration work, since every BuildAtlas sweep expands configurations
// through the transition function. It lets the tests assert "one build
// ran" without reaching into cache internals.
type countingProtocol struct {
	model.Protocol
	steps atomic.Int64
}

func (cp *countingProtocol) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	cp.steps.Add(1)
	return cp.Protocol.Step(p, s, m)
}

// TestAtlasCacheSingleflight pins the serving-layer contract: N
// concurrent identical requests cost exactly one BuildAtlas sweep, and
// every caller gets the same immutable atlas.
func TestAtlasCacheSingleflight(t *testing.T) {
	cp := &countingProtocol{Protocol: protocols.NewNaiveMajority(3)}
	root := model.MustInitial(cp, model.Inputs{0, 1, 1})
	opt := Options{MaxConfigs: 200000, Workers: 1}
	ac := NewAtlasCache()

	const N = 16
	var wg sync.WaitGroup
	atlases := make([]*Atlas, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, ok := ac.Get(cp, root, opt)
			if !ok {
				t.Error("Get refused a coverable root")
				return
			}
			atlases[i] = a
		}(i)
	}
	wg.Wait()

	for i := 1; i < N; i++ {
		if atlases[i] != atlases[0] {
			t.Fatalf("caller %d got a different atlas instance", i)
		}
	}
	stepsAfterBuild := cp.steps.Load()
	if stepsAfterBuild == 0 {
		t.Fatal("no exploration ran at all")
	}
	hits, misses, merged := ac.Stats()
	if misses != 1 {
		t.Fatalf("%d concurrent identical requests ran %d builds, want 1", N, misses)
	}
	if hits+merged != N-1 {
		t.Fatalf("hits+merged = %d, want %d", hits+merged, N-1)
	}

	// A later identical request is a pure memory hit: zero new Steps.
	if _, ok := ac.Get(cp, root, opt); !ok {
		t.Fatal("warm Get refused")
	}
	if cp.steps.Load() != stepsAfterBuild {
		t.Fatal("a warm Get re-explored the graph")
	}
}

// TestAtlasCacheKeying pins that distinct (protocol, params, root) tuples
// occupy distinct slots — and identical tuples share one — by driving
// every key dimension separately.
func TestAtlasCacheKeying(t *testing.T) {
	nm := protocols.NewNaiveMajority(3)
	ac := NewAtlasCache()
	opt := Options{MaxConfigs: 200000, Workers: 1}

	root011 := model.MustInitial(nm, model.Inputs{0, 1, 1})
	root110 := model.MustInitial(nm, model.Inputs{1, 1, 0})

	a1, ok := ac.Get(nm, root011, opt)
	if !ok {
		t.Fatal("naivemajority root refused")
	}

	// Distinct root, same protocol and params → distinct atlas.
	a2, ok := ac.Get(nm, root110, opt)
	if !ok {
		t.Fatal("second root refused")
	}
	if a1 == a2 {
		t.Fatal("distinct roots shared one atlas")
	}

	// Distinct params (budget), same protocol and root → distinct slot.
	// MaxConfigs 50 is below naivemajority's reachable-set size, so this
	// slot memoizes a refusal without disturbing the full-budget atlas.
	if _, ok := ac.Get(nm, root011, Options{MaxConfigs: 50, Workers: 1}); ok {
		t.Fatal("50-config budget unexpectedly covered the reachable set")
	}
	if again, ok := ac.Get(nm, root011, opt); !ok || again != a1 {
		t.Fatal("full-budget slot was disturbed by the refused small-budget build")
	}

	// Distinct protocol, same inputs shape → distinct slot.
	tp := protocols.NewTwoPhaseCommit(3)
	rootTP := model.MustInitial(tp, model.Inputs{0, 1, 1})
	a3, ok := ac.Get(tp, rootTP, opt)
	if !ok {
		t.Fatal("2pc root refused")
	}
	if a3 == a1 || a3 == a2 {
		t.Fatal("distinct protocols shared one atlas")
	}

	// Workers is excluded from the key: parallel and sequential requests
	// for one tuple share the slot (results are byte-identical at any
	// worker count).
	optPar := opt
	optPar.Workers = 8
	if shared, ok := ac.Get(nm, root011, optPar); !ok || shared != a1 {
		t.Fatal("worker count leaked into the cache key")
	}

	// 4 builds ran (two nm roots, one 2pc root, one refused small-budget
	// build); everything else above was answered from memory.
	if _, misses, _ := ac.Stats(); misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
}

// TestTryWarmSharesBuilds pins the Cache↔AtlasCache wiring: two valency
// caches sharing one build cache pay one sweep between them, and the
// memoized-refusal contract of TryWarm survives the extraction.
func TestTryWarmSharesBuilds(t *testing.T) {
	cp := &countingProtocol{Protocol: protocols.NewNaiveMajority(3)}
	root := model.MustInitial(cp, model.Inputs{0, 1, 1})
	opt := Options{MaxConfigs: 200000, Workers: 1}
	shared := NewAtlasCache()

	c1 := NewCache(cp, opt)
	c1.ShareAtlasBuilds(shared)
	c2 := NewCache(cp, opt)
	c2.ShareAtlasBuilds(shared)

	if !c1.TryWarm(root) {
		t.Fatal("first TryWarm failed")
	}
	steps := cp.steps.Load()
	if !c2.TryWarm(root) {
		t.Fatal("second cache's TryWarm failed")
	}
	if cp.steps.Load() != steps {
		t.Fatal("second cache re-paid the atlas sweep instead of sharing it")
	}
	if !c1.Covers(root) || !c2.Covers(root) {
		t.Fatal("warmed caches do not cover the root")
	}

	// Both caches answer classifications from the one shared atlas.
	info1 := c1.Classify(root)
	info2 := c2.Classify(root)
	if info1.Valency != info2.Valency || info1.Visited != info2.Visited {
		t.Fatalf("shared-atlas classifications diverge: %+v vs %+v", info1, info2)
	}

	// Repeated TryWarm on a covered root must not re-attach: the atlas
	// list stays at one.
	if !c1.TryWarm(root) {
		t.Fatal("TryWarm on a covered root failed")
	}
	if n := len(*c1.atlases.Load()); n != 1 {
		t.Fatalf("repeat TryWarm grew the attached-atlas list to %d", n)
	}
}

// gatedBackend is an AtlasBackend that counts its builds and answers each
// with a fresh atlas value once gate opens (nil gate: immediately), or
// panics when told to.
type gatedBackend struct {
	builds  atomic.Int64
	gate    chan struct{}
	started chan struct{}
	panics  bool
}

func (g *gatedBackend) GetAtlas(model.Protocol, *model.Config, Options) (*Atlas, bool) {
	g.builds.Add(1)
	if g.started != nil {
		close(g.started)
	}
	if g.gate != nil {
		<-g.gate
	}
	if g.panics {
		panic("kaboom")
	}
	return &Atlas{}, true
}

// TestAtlasCacheMergesInFlightBuild pins the singleflight contract with
// the build held open, so every caller piles up on it: N concurrent lookups
// for one key run one build, all see its atlas, and the N−1 that did not
// build are counted as hits or merged waits.
func TestAtlasCacheMergesInFlightBuild(t *testing.T) {
	nm := protocols.NewNaiveMajority(3)
	root := model.MustInitial(nm, model.Inputs{0, 1, 1})
	g := &gatedBackend{gate: make(chan struct{})}
	ac := NewAtlasCache()
	ac.SetBackend(g)

	const N = 32
	var wg sync.WaitGroup
	atlases := make([]*Atlas, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			atlases[i], _ = ac.Get(nm, root, Options{})
		}(i)
	}
	close(g.gate)
	wg.Wait()

	if got := g.builds.Load(); got != 1 {
		t.Fatalf("%d concurrent lookups ran %d builds, want 1", N, got)
	}
	for i, a := range atlases {
		if a == nil || a != atlases[0] {
			t.Fatalf("caller %d saw atlas %p, want the one build's %p", i, a, atlases[0])
		}
	}
	hits, misses, merged := ac.Stats()
	if misses != 1 || hits+merged != N-1 {
		t.Fatalf("stats hits %d misses %d merged %d, want 1 miss and %d hits+merged", hits, misses, merged, N-1)
	}
}

// TestAtlasCacheDistinctKeys pins that keys are independent: each distinct
// budget runs its own build, later rounds are pure hits, and the atlases
// never cross.
func TestAtlasCacheDistinctKeys(t *testing.T) {
	nm := protocols.NewNaiveMajority(3)
	root := model.MustInitial(nm, model.Inputs{0, 1, 1})
	g := &gatedBackend{}
	ac := NewAtlasCache()
	ac.SetBackend(g)
	first := make([]*Atlas, 5)
	for round := 0; round < 3; round++ {
		for i := range first {
			a, ok, hit := ac.GetStats(nm, root, Options{MaxConfigs: 100 + i})
			if !ok {
				t.Fatalf("round %d budget %d refused", round, 100+i)
			}
			if wantHit := round > 0; hit != wantHit {
				t.Fatalf("round %d budget %d: hit = %v, want %v", round, 100+i, hit, wantHit)
			}
			if round == 0 {
				for j := 0; j < i; j++ {
					if first[j] == a {
						t.Fatalf("budgets %d and %d share one atlas", 100+j, 100+i)
					}
				}
				first[i] = a
			} else if a != first[i] {
				t.Fatalf("round %d budget %d resolved to another atlas", round, 100+i)
			}
		}
	}
	if got := g.builds.Load(); got != 5 {
		t.Fatalf("ran %d builds for 5 distinct keys, want 5", got)
	}
	if ac.Len() != 5 {
		t.Fatalf("Len = %d, want 5", ac.Len())
	}
}

// TestAtlasCachePanicReleasesWaiters pins that a panicking build does not
// strand a concurrent waiter: it is answered with a refusal instead of
// hanging, and the panic reaches the building goroutine.
func TestAtlasCachePanicReleasesWaiters(t *testing.T) {
	nm := protocols.NewNaiveMajority(3)
	root := model.MustInitial(nm, model.Inputs{0, 1, 1})
	g := &gatedBackend{gate: make(chan struct{}), started: make(chan struct{}), panics: true}
	ac := NewAtlasCache()
	ac.SetBackend(g)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		ac.Get(nm, root, Options{})
	}()
	<-g.started
	okc := make(chan bool, 1)
	go func() {
		_, ok := ac.Get(nm, root, Options{})
		okc <- ok
	}()
	for {
		if _, _, merged := ac.Stats(); merged == 1 {
			break
		}
		runtime.Gosched()
	}
	close(g.gate)
	if ok := <-okc; ok {
		t.Fatal("the waiter on a panicked build got an atlas")
	}
	if p := <-panicked; p == nil {
		t.Fatal("the panic did not reach the building goroutine")
	}
	if g.builds.Load() != 1 {
		t.Fatalf("ran %d builds, want 1", g.builds.Load())
	}
}
