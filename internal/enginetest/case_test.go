package enginetest_test

import (
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
)

// TestLevelBoundaryCases holds the two cases whose budgets are sized to a
// level to where their names say the walk stops: every configuration
// within d steps of the root is admitted, and one more configuration of
// budget would be a configuration at depth d+1.
func TestLevelBoundaryCases(t *testing.T) {
	want := map[string]int{"naivemajority-depth4": 4, "gen5-depth3-budget250": 3}
	for _, c := range enginetest.Cases(t) {
		d, ok := want[c.Name]
		if !ok {
			continue
		}
		delete(want, c.Name)
		at, err := enginetest.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		c.Options.MaxConfigs++
		past, err := enginetest.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		last, next := at.Visits[len(at.Visits)-1].Depth, past.Visits[len(past.Visits)-1].Depth
		if at.Complete || last != d || next != d+1 {
			t.Errorf("%s: complete %v, last visit at depth %d, one more admits depth %d; want incomplete, %d, %d",
				c.Name, at.Complete, last, next, d, d+1)
		}
	}
	if len(want) != 0 {
		t.Fatalf("cases missing from the table: %v", want)
	}
}
