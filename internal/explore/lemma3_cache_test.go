package explore

import (
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// TestLemma3SharesWarmedAtlas pins the sharing contract between the
// Lemma 3 census and a caller-supplied cache: the first call on a
// root warms the cache with ONE atlas over reach(root), and every later
// CensusLemma3 on the same (root, cache) pair
// answers from that atlas — no second build, no per-configuration
// classification. A regression here is silent (results stay correct, the
// census just degrades to one breadth-first search per frontier member),
// so the test asserts on the cache internals rather than on output.
func TestLemma3SharesWarmedAtlas(t *testing.T) {
	sp := protogen.Derive(7, protogen.DefaultDials(3))
	pr := protogen.MustNew(sp)
	in := make(model.Inputs, sp.N)
	for p := range in {
		in[p] = model.Value(p & 1)
	}
	root := model.MustInitial(pr, in)
	opt := Options{MaxConfigs: 200000}
	cache := NewCache(pr, opt)

	if _, err := CensusLemma3(pr, root, model.NullEvent(0), opt, cache); err != nil {
		t.Fatal(err)
	}
	atlases := cache.atlases.Load()
	if atlases == nil || len(*atlases) != 1 {
		t.Fatalf("after first census the cache holds %d atlases, want exactly 1", lenOf(atlases))
	}
	first := (*atlases)[0]
	if _, misses := cache.Stats(); misses != 0 {
		t.Errorf("first census classified %d configurations outside the atlas, want 0", misses)
	}

	if _, err := CensusLemma3(pr, root, model.NullEvent(1), opt, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := CensusLemma3(pr, root, model.NullEvent(2), opt, cache); err != nil {
		t.Fatal(err)
	}
	atlases = cache.atlases.Load()
	if len(*atlases) != 1 || (*atlases)[0] != first {
		t.Fatalf("later calls on the same root rebuilt the atlas: %d attached, want the original alone", len(*atlases))
	}
	hits, misses := cache.Stats()
	if misses != 0 {
		t.Errorf("later calls classified %d configurations outside the shared atlas, want 0", misses)
	}
	if hits == 0 {
		t.Error("no cache hits recorded across three frontier sweeps")
	}
}

func lenOf(atlases *[]*Atlas) int {
	if atlases == nil {
		return 0
	}
	return len(*atlases)
}
