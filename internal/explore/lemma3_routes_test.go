package explore_test

import (
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// TestLemma3RoutesAgree holds the two routes of the Figure 2 and Figure 3
// checks to each other: for every case of the oracle's table whose
// reachable set an atlas covers within the case's bounds (the committed
// protogen corpus included; a case's avoided event and stop play no part),
// and every applicable non-no-op event e of its root, the atlas route and
// the direct route over explore.Frontier must return identical reports.
// The direct route is forced with a depth cap no walk reaches, because
// BuildAtlas refuses any depth cap.
func TestLemma3RoutesAgree(t *testing.T) {
	cases, pairs := 0, 0
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
	}
	if cases == 0 || pairs == 0 {
		t.Fatalf("routes compared on %d cases and %d (case, event) pairs with a square or pair; the table lost its complete cases", cases, pairs)
	}
	t.Logf("%d complete cases, %d (case, event) pairs with at least one square or pair", cases, pairs)
}
