package explore

import (
	"testing"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// TestReleaseBoundsPooledTables pins what tables keeps: a table that
// outgrew keepNodes is dropped, and so is one far larger than the walk that
// just used it, while a table its walk filled is kept — emptied, with no
// configuration, event or row of the finished exploration left anywhere in
// its capacity.
func TestReleaseBoundsPooledTables(t *testing.T) {
	pr := protocols.NewPaxosSynod(3)
	root := model.MustInitial(pr, model.Inputs{0, 1, 1})
	walked := func(c *core, budget, workers int) *core {
		c.init(pr, root, nil)
		c.walk(0, Options{MaxConfigs: budget, Workers: workers}.withDefaults(), nil)
		return c
	}

	if c := walked(new(core), keepNodes+1, 2); c.release() {
		t.Fatalf("a table of %d nodes (capacity %d) was kept; the cap is %d", c.Len(), cap(c.cfgs), keepNodes)
	}
	huge := &core{cfgs: make([]*model.Config, 0, keepFloor+1)}
	if c := walked(huge, 10, 1); c.release() {
		t.Fatalf("a table of capacity %d was kept after a walk of %d nodes", cap(c.cfgs), c.Len())
	}

	c := walked(new(core), 1000, 2)
	if !c.release() {
		t.Fatalf("a table of %d nodes (capacity %d) was dropped", c.Len(), cap(c.cfgs))
	}
	if c.Len() != 0 || c.g.Len() != 0 || len(c.g.SuccStart) != 0 || c.rowBase != 0 || c.pr != nil {
		t.Fatalf("a kept table is not empty: %d nodes, %d in the columns, %d row starts, row base %d", c.Len(), c.g.Len(), len(c.g.SuccStart), c.rowBase)
	}
	if _, ok := c.lookup(root); ok {
		t.Fatal("a kept table's index still finds the root")
	}
	for _, cfg := range c.cfgs[:cap(c.cfgs)] {
		if cfg != nil {
			t.Fatal("a kept table holds a configuration past its length")
		}
	}
	for _, col := range [][]model.Event{c.g.ParentVia[:cap(c.g.ParentVia)], c.g.SuccVia[:cap(c.g.SuccVia)], c.mem.scr[0].evs[:cap(c.mem.scr[0].evs)]} {
		for _, e := range col {
			if e.Msg != nil {
				t.Fatal("a kept table holds an event past its length")
			}
		}
	}
	for _, buf := range c.mem.pool.free {
		for _, s := range buf[:cap(buf)] {
			if s.cfg != nil || s.via.Msg != nil {
				t.Fatal("a kept table holds a successor buffer entry")
			}
		}
	}
}
