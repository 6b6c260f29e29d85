// Package pst builds the Program Structure Tree of Johnson, Pearson
// and Pingali (PLDI'94): single-entry single-exit (SESE) regions found
// through cycle equivalence of control flow edges. Unlike JPP's
// canonical (smallest) regions, this package produces the *maximal*
// SESE regions the paper's hierarchical spill code placement requires:
// one region per cycle-equivalence class, spanning from the class's
// dominating edge to its postdominating edge.
package pst

import (
	"cmp"
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// augGraph is the CFG augmented with virtual START and END nodes and
// the END->START edge that makes the undirected graph 2-edge-connected
// (every edge lies on a cycle), as required for cycle equivalence.
type augGraph struct {
	f *ir.Func
	// Node numbering: 0..n-1 real blocks (by ID), n = START, n+1 = END.
	n     int
	start int
	end   int
	// edges[i] describes augmented edge i; END->START is the last.
	edges []augEdge
	// Undirected incidence in compressed sparse row form: the edges
	// incident to node v are half[off[v]:off[v+1]], in edge order.
	off  []int32
	half []halfEdge
}

type augEdge struct {
	from, to int32
	real     *ir.Edge  // nil for augmented edges
	exitFrom *ir.Block // for exit->END edges, the exit block
	isEntry  bool      // START->entry
	isClose  bool      // END->START
}

type halfEdge struct {
	edge  int32
	other int32
}

func buildAug(f *ir.Func) *augGraph {
	n := len(f.Blocks)
	m := 2
	for _, b := range f.Blocks {
		m += len(b.Succs)
		if b.IsExit() {
			m++
		}
	}
	g := &augGraph{f: f, n: n, start: n, end: n + 1, edges: make([]augEdge, 0, m)}
	g.edges = append(g.edges, augEdge{from: int32(g.start), to: int32(f.Entry.ID), isEntry: true})
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			g.edges = append(g.edges, augEdge{from: int32(b.ID), to: int32(e.To.ID), real: e})
		}
		if b.IsExit() {
			g.edges = append(g.edges, augEdge{from: int32(b.ID), to: int32(g.end), exitFrom: b})
		}
	}
	g.edges = append(g.edges, augEdge{from: int32(g.end), to: int32(g.start), isClose: true})

	g.off = make([]int32, n+3)
	for _, e := range g.edges {
		g.off[e.from+1]++
		if e.from != e.to {
			g.off[e.to+1]++
		}
	}
	for v := 0; v < n+2; v++ {
		g.off[v+1] += g.off[v]
	}
	g.half = make([]halfEdge, g.off[n+2])
	for i, e := range g.edges {
		g.half[g.off[e.from]] = halfEdge{edge: int32(i), other: e.to}
		g.off[e.from]++
		if e.from != e.to {
			g.half[g.off[e.to]] = halfEdge{edge: int32(i), other: e.from}
			g.off[e.to]++
		}
	}
	// off[v] now ends v's list; shift it back to start it.
	copy(g.off[1:], g.off[:n+2])
	g.off[0] = 0
	return g
}

// edgeNode is augmented edge i's node in the split graph, which
// numbers the n blocks, START and END as in the augmented graph and
// then one node per augmented edge.
func (g *augGraph) edgeNode(i int32) int { return g.n + 2 + int(i) }

// splitGraph builds the edge-split directed graph used to order edges
// of one class by dominance and to decide region membership: every
// augmented edge i: u->v except END->START becomes u -> edgeNode(i) ->
// v. END->START's node stays isolated.
func splitGraph(g *augGraph) *cfg.Graph {
	m := 2 * (len(g.edges) - 1)
	from, to := make([]int32, 0, m), make([]int32, 0, m)
	for i, e := range g.edges {
		if e.isClose {
			continue
		}
		en := int32(g.edgeNode(int32(i)))
		from = append(from, e.from, en)
		to = append(to, en, e.to)
	}
	return cfg.NewGraph(g.n+2+len(g.edges), from, to)
}

// xorshift is a tiny deterministic PRNG so cycle-equivalence class
// signatures are reproducible run to run.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	*x = xorshift(v)
	return v
}

// sig is a 128-bit signature of the set of fundamental cycles an edge
// belongs to. Two edges are cycle equivalent iff they belong to the
// same set of fundamental cycles of any spanning tree, so equal sigs
// identify equivalence classes (collision probability ~2^-128).
type sig struct{ a, b uint64 }

func (s *sig) xor(t sig) { s.a ^= t.a; s.b ^= t.b }

// cycleEquivalence returns, for every augmented edge index, a class
// signature such that two edges are cycle equivalent iff their
// signatures are equal.
//
// Method: build an undirected DFS spanning tree. Each non-tree edge
// (backedge) defines a fundamental cycle consisting of itself plus the
// tree path between its endpoints. A tree edge's fundamental-cycle set
// is the set of backedges whose tree path crosses it, computed with
// the standard path-XOR subtree aggregation; a backedge's set is just
// itself. Self-loops form singleton classes.
func cycleEquivalence(g *augGraph) []sig {
	nNodes := g.n + 2
	nEdges := len(g.edges)

	parent := make([]int32, nNodes)     // parent node in DFS tree
	parentEdge := make([]int32, nNodes) // edge index to parent
	order := make([]int32, 0, nNodes)   // DFS preorder of nodes
	seen := make([]bool, nNodes)
	rng := xorshift(0x5eed1234abcd9876)
	// acc[v] starts as the XOR of the backedge hashes at v and becomes
	// the XOR over v's subtree.
	acc := make([]sig, nNodes)
	sigs := make([]sig, nEdges)
	used := make([]bool, nEdges)

	// Iterative DFS from START over the undirected multigraph.
	type frame struct{ node, next int32 }
	stack := []frame{{int32(g.start), g.off[g.start]}}
	seen[g.start] = true
	order = append(order, int32(g.start))
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next >= g.off[fr.node+1] {
			stack = stack[:len(stack)-1]
			continue
		}
		he := g.half[fr.next]
		fr.next++
		if used[he.edge] {
			continue
		}
		used[he.edge] = true
		e := &g.edges[he.edge]
		if e.from == e.to {
			// Self-loop: unique singleton class.
			sigs[he.edge] = sig{rng.next(), rng.next()}
			continue
		}
		w := he.other
		if !seen[w] {
			parent[w] = fr.node
			parentEdge[w] = he.edge
			seen[w] = true
			order = append(order, w)
			stack = append(stack, frame{w, g.off[w]})
		} else {
			// Backedge (to an ancestor or finished node; in undirected
			// DFS all non-tree edges connect to ancestors).
			h := sig{rng.next(), rng.next()}
			sigs[he.edge] = h
			acc[e.from].xor(h)
			acc[e.to].xor(h)
		}
	}

	// Subtree XOR aggregation in reverse preorder (children first).
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		// Tree edge parent-v carries the subtree XOR of v.
		sigs[parentEdge[v]] = acc[v]
		acc[parent[v]].xor(acc[v])
	}
	return sigs
}

// groupClasses groups augmented edge indices by signature: each class
// lists its edges in ascending order, and the classes are ordered by
// their first edge.
func groupClasses(sigs []sig) [][]int32 {
	type keyed struct {
		s    sig
		edge int32
	}
	ks := make([]keyed, len(sigs))
	for i, s := range sigs {
		ks[i] = keyed{s, int32(i)}
	}
	slices.SortFunc(ks, func(x, y keyed) int {
		if c := cmp.Compare(x.s.a, y.s.a); c != 0 {
			return c
		}
		if c := cmp.Compare(x.s.b, y.s.b); c != 0 {
			return c
		}
		return cmp.Compare(x.edge, y.edge)
	})
	flat := make([]int32, len(ks))
	var classes [][]int32
	for i := 0; i < len(ks); {
		j := i
		for ; j < len(ks) && ks[j].s == ks[i].s; j++ {
			flat[j] = ks[j].edge
		}
		classes = append(classes, flat[i:j:j])
		i = j
	}
	slices.SortFunc(classes, func(x, y []int32) int { return cmp.Compare(x[0], y[0]) })
	return classes
}
