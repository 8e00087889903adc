package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeIdempotent(t *testing.T) {
	once, twice := New(2), New(2)
	once.AddEdge(0, 1)
	twice.AddEdge(0, 1)
	twice.AddEdge(0, 1)
	if !once.Equal(twice) {
		t.Error("duplicate AddEdge changed the graph")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range AddEdge did not panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestCloneAndEqual(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone not equal")
	}
	c.AddEdge(1, 2)
	if g.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if g.adj[1][2] {
		t.Error("clone mutation leaked into original")
	}
	if g.Equal(New(4)) {
		t.Error("graphs of different sizes equal")
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	c := g.TransitiveClosure()
	wantEdges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, e := range wantEdges {
		if !c.adj[e[0]][e[1]] {
			t.Errorf("closure missing %v", e)
		}
	}
	if c.adj[3][0] || c.adj[0][0] {
		t.Error("closure has spurious edges")
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	c := g.TransitiveClosure()
	// Nodes on a cycle reach themselves.
	if !c.adj[0][0] || !c.adj[1][1] {
		t.Error("cycle nodes lack self-loops in closure")
	}
	if c.adj[2][2] {
		t.Error("isolated node acquired a self-loop")
	}
}

func TestClosureIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(7)
		g := New(n)
		for i := 0; i < n*n/2; i++ {
			g.AddEdge(rr.Intn(n), rr.Intn(n))
		}
		c1 := g.TransitiveClosure()
		c2 := c1.TransitiveClosure()
		return c1.Equal(c2)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestClosureContainsOriginal(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(7)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(rr.Intn(n), rr.Intn(n))
		}
		c := g.TransitiveClosure()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.adj[i][j] && !c.adj[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInitialCliqueSimple(t *testing.T) {
	// Two mutually-connected roots feeding two downstream nodes.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	clique := g.TransitiveClosure().InitialClique()
	if len(clique) != 2 || clique[0] != 0 || clique[1] != 1 {
		t.Errorf("InitialClique = %v, want [0 1]", clique)
	}
}

func TestInitialCliqueWholeGraph(t *testing.T) {
	// A single cycle through everyone: the whole graph is the clique.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	clique := g.TransitiveClosure().InitialClique()
	if len(clique) != 3 {
		t.Errorf("InitialClique = %v, want all nodes", clique)
	}
}

func TestInitialCliqueExcludesDownstream(t *testing.T) {
	// 0↔1 → 2 → 3, and 2→3 only: 2 and 3 have ancestors they cannot reach.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	clique := g.TransitiveClosure().InitialClique()
	if len(clique) != 2 || clique[0] != 0 || clique[1] != 1 {
		t.Errorf("InitialClique = %v, want [0 1]", clique)
	}
}

// Property: in the closure of a graph where every node has indegree ≥ 1,
// the initial clique is nonempty, mutually connected, and has no incoming
// edges from outside.
func TestInitialCliqueProperties(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(6)
		g := New(n)
		// Ring ensures indegree ≥ 1 for every node, then random extras.
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n)
		}
		for i := 0; i < n; i++ {
			g.AddEdge(rr.Intn(n), rr.Intn(n))
		}
		c := g.TransitiveClosure()
		clique := c.InitialClique()
		if len(clique) == 0 {
			return false
		}
		inClique := map[int]bool{}
		for _, k := range clique {
			inClique[k] = true
		}
		for _, k := range clique {
			for _, j := range clique {
				if j != k && !c.adj[j][k] {
					return false // not mutually connected
				}
			}
			for u := 0; u < n; u++ {
				if !inClique[u] && c.adj[u][k] {
					return false // incoming edge from outside
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
