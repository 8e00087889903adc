// Package graph provides the directed-graph substrate for the paper's
// Section 4 protocol: the processes build a graph G of who-heard-whom,
// compute its transitive closure G+, and locate the unique initial clique
// (a strongly connected set of nodes with no incoming edges from outside).
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over nodes 0..N-1 with an adjacency matrix.
// The zero value is unusable; construct with New.
type Digraph struct {
	n   int
	adj [][]bool
}

// New returns an empty digraph on n nodes.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Digraph{n: n, adj: adj}
}

// AddEdge inserts the edge from → to. Self-loops are allowed (the closure
// introduces them anyway for nodes on cycles).
func (g *Digraph) AddEdge(from, to int) {
	g.check(from)
	g.check(to)
	g.adj[from][to] = true
}

// InDegree returns the number of edges into node v.
func (g *Digraph) InDegree(v int) int {
	g.check(v)
	c := 0
	for u := 0; u < g.n; u++ {
		if g.adj[u][v] {
			c++
		}
	}
	return c
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	for i := range g.adj {
		copy(c.adj[i], g.adj[i])
	}
	return c
}

// Equal reports whether two graphs have identical node sets and edges.
func (g *Digraph) Equal(o *Digraph) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.adj {
		for j := range g.adj[i] {
			if g.adj[i][j] != o.adj[i][j] {
				return false
			}
		}
	}
	return true
}

// TransitiveClosure returns G+: the graph with an edge u → v whenever v is
// reachable from u by a nonempty path in g. (Warshall's algorithm.)
func (g *Digraph) TransitiveClosure() *Digraph {
	c := g.Clone()
	for k := 0; k < c.n; k++ {
		for i := 0; i < c.n; i++ {
			if !c.adj[i][k] {
				continue
			}
			for j := 0; j < c.n; j++ {
				if c.adj[k][j] {
					c.adj[i][j] = true
				}
			}
		}
	}
	return c
}

// InitialClique returns the initial clique of G+ for a closed graph g
// (call it on TransitiveClosure output): the set of nodes k such that k is
// an ancestor of every node j that is an ancestor of k. The paper shows
// that when every node has indegree ≥ L-1 and N < 2L, the initial clique
// is unique and has cardinality ≥ L; this function implements only the
// membership rule and returns whatever it defines, sorted.
func (g *Digraph) InitialClique() []int {
	var clique []int
	for k := 0; k < g.n; k++ {
		member := true
		for j := 0; j < g.n; j++ {
			if g.adj[j][k] && !g.adj[k][j] {
				member = false
				break
			}
		}
		if member && g.InDegree(k) > 0 {
			clique = append(clique, k)
		}
	}
	sort.Ints(clique)
	return clique
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", v, g.n))
	}
}
