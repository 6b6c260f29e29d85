// Package cfg provides control flow graph analyses over ir.Func:
// dominators, postdominators, depth-first orders, natural loops, and
// reducibility — the structural facts consumed by the PST builder,
// the register allocator, and spill code placement.
package cfg

import (
	"repro/internal/ir"
)

// DomTree holds an (immediate-)dominator tree of a function's blocks.
// It serves for both dominance (over the forward CFG) and
// postdominance (over the reverse CFG with a virtual exit). It is
// computed by the same iteration as NodeDominators, over the
// function's integer graph, and answers Dominates in O(1) from the
// tree's preorder intervals.
type DomTree struct {
	// IDom[b.ID] is the immediate dominator of b, or nil for the root
	// and for nodes unreachable in the direction analyzed.
	IDom []*ir.Block
	// Children[b.ID] lists blocks immediately dominated by b.
	Children [][]*ir.Block
	root     *ir.Block
	num      []span
	post     bool // true if this is a postdominator tree
}

// Dominators computes the dominator tree of f rooted at the entry.
func Dominators(f *ir.Func) *DomTree {
	from, to := funcEdges(f, 0)
	idom, order := chk(NewGraph(len(f.Blocks), from, to), f.Entry.ID)
	t := &DomTree{root: f.Entry}
	t.finish(f, idom, order)
	return t
}

// Postdominators computes the postdominator tree of f. Functions with
// multiple exit blocks are handled by treating every exit as having an
// edge to a virtual exit; the virtual exit is represented by a nil
// immediate postdominator on the exits themselves (each exit is a root
// of its own subtree under the virtual exit). Blocks from which no
// exit is reachable (infinite loops) get nil as well.
func Postdominators(f *ir.Func) *DomTree {
	n := len(f.Blocks)
	// The reverse CFG (every edge swapped) plus a virtual exit, node
	// n, with an edge to every exit block.
	to, from := funcEdges(f, n)
	for _, b := range f.Blocks {
		if b.IsExit() {
			from = append(from, int32(n))
			to = append(to, int32(b.ID))
		}
	}
	idom, order := chk(NewGraph(n+1, from, to), n)
	idom = idom[:n]
	for i, d := range idom {
		if d == int32(n) {
			idom[i] = -1
		}
	}
	t := &DomTree{post: true}
	t.finish(f, idom, order[1:]) // order[0] is the virtual exit
	return t
}

// funcEdges lists f's CFG edges as parallel (from, to) block-ID
// slices with room for extra more.
func funcEdges(f *ir.Func, extra int) (from, to []int32) {
	m := extra
	for _, b := range f.Blocks {
		m += len(b.Succs)
	}
	from, to = make([]int32, 0, m), make([]int32, 0, m)
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			from = append(from, int32(b.ID))
			to = append(to, int32(e.To.ID))
		}
	}
	return from, to
}

// ReversePostorder returns the blocks of f in reverse postorder of a
// DFS from the entry over forward edges.
func ReversePostorder(f *ir.Func) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, e := range b.Succs {
			if !seen[e.To.ID] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Postorder returns the blocks in postorder of a DFS from the entry.
func Postorder(f *ir.Func) []*ir.Block {
	rpo := ReversePostorder(f)
	out := make([]*ir.Block, len(rpo))
	for i, b := range rpo {
		out[len(rpo)-1-i] = b
	}
	return out
}

// finish sets the tree from idom (block IDs, -1 for none): the IDom
// pointers, Children in layout order, and the preorder numbering
// behind Dominates and Level. order is as numberForest takes it.
func (t *DomTree) finish(f *ir.Func, idom, order []int32) {
	n := len(f.Blocks)
	t.IDom = make([]*ir.Block, n)
	t.Children = make([][]*ir.Block, n)
	nkids := make([]int32, n)
	for _, d := range idom {
		if d >= 0 {
			nkids[d]++
		}
	}
	kids := make([]*ir.Block, 0, n)
	for _, b := range f.Blocks {
		if d := idom[b.ID]; d >= 0 {
			t.IDom[b.ID] = f.Blocks[d]
			if t.Children[d] == nil {
				// One backing array; each child list is capped at its
				// own length so appending to one cannot clobber the next.
				k := len(kids)
				kids = kids[:k+int(nkids[d])]
				t.Children[d] = kids[k:k:len(kids)]
			}
			t.Children[d] = append(t.Children[d], b)
		}
	}
	t.num = numberForest(idom, order)
}

// Dominates reports whether a dominates b (reflexively). For a
// postdominator tree this means "a postdominates b". Blocks in
// different trees of the forest are unrelated.
func (t *DomTree) Dominates(a, b *ir.Block) bool { return dominates(t.num, a.ID, b.ID) }

// StrictlyDominates reports a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// Level returns b's depth in the tree (0 for roots).
func (t *DomTree) Level(b *ir.Block) int { return int(t.num[b.ID].level) }

// Graph is a directed graph over the nodes 0..n-1, with successor
// and predecessor lists in compressed sparse row form.
type Graph struct {
	succOff, succ []int32
	predOff, pred []int32
}

// NewGraph builds the graph on n nodes with the edges from[i]->to[i].
// Each node's successor and predecessor lists keep the edges' order.
func NewGraph(n int, from, to []int32) *Graph {
	g := &Graph{}
	g.succOff, g.succ = csr(n, from, to)
	g.predOff, g.pred = csr(n, to, from)
	return g
}

// csr groups dst by src: node v's list is adj[off[v]:off[v+1]].
func csr(n int, src, dst []int32) (off, adj []int32) {
	off = make([]int32, n+1)
	for _, s := range src {
		off[s+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj = make([]int32, len(src))
	for i, s := range src {
		adj[off[s]] = dst[i]
		off[s]++
	}
	// off[v] now ends v's list; shift it back to start it.
	copy(off[1:], off[:n])
	off[0] = 0
	return off, adj
}

func (g *Graph) numNodes() int { return len(g.succOff) - 1 }

func (g *Graph) preds(v int) []int32 { return g.pred[g.predOff[v]:g.predOff[v+1]] }

// Reverse returns the graph with every edge reversed. It shares g's
// storage.
func (g *Graph) Reverse() *Graph {
	return &Graph{succOff: g.predOff, succ: g.pred, predOff: g.succOff, pred: g.succ}
}

// reversePostorder returns the nodes reachable from root in reverse
// postorder of a DFS over successors.
func (g *Graph) reversePostorder(root int) []int32 {
	seen := make([]bool, g.numNodes())
	post := make([]int32, 0, g.numNodes())
	type frame struct{ v, next int32 }
	stack := []frame{{int32(root), g.succOff[root]}}
	seen[root] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < g.succOff[top.v+1] {
			w := g.succ[top.next]
			top.next++
			if !seen[w] {
				seen[w] = true
				stack = append(stack, frame{w, g.succOff[w]})
			}
			continue
		}
		post = append(post, top.v)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// NodeDom is a dominator tree over a Graph's nodes.
type NodeDom struct {
	// IDom[v] is v's immediate dominator, or -1 for the root and for
	// nodes unreachable from it.
	IDom []int32
	num  []span
}

// NodeDominators computes the dominator tree of g rooted at root.
// Postdominators are the dominators of g.Reverse() rooted at the exit.
func NodeDominators(g *Graph, root int) *NodeDom {
	idom, order := chk(g, root)
	return &NodeDom{IDom: idom, num: numberForest(idom, order)}
}

// chk computes immediate dominators with the iterative
// Cooper-Harvey-Kennedy algorithm: idom[v] is v's immediate dominator,
// -1 for the root and for nodes unreachable from it. It also returns
// the reverse postorder of the reachable nodes, in which every node's
// immediate dominator precedes it.
func chk(g *Graph, root int) (idom, order []int32) {
	order = g.reversePostorder(root)
	// rpo[v] is v's position in order, -1 when unreachable. The
	// iteration runs on positions: doms[i] is the position of the
	// immediate dominator of order[i], -1 while unknown.
	rpo := make([]int32, g.numNodes())
	for i := range rpo {
		rpo[i] = -1
	}
	for i, v := range order {
		rpo[v] = int32(i)
	}
	doms := make([]int32, len(order))
	for i := range doms {
		doms[i] = -1
	}
	doms[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(order); i++ {
			nd := int32(-1)
			for _, p := range g.preds(int(order[i])) {
				a := rpo[p]
				if a < 0 || doms[a] < 0 {
					continue // unreachable or unprocessed
				}
				if nd >= 0 {
					b := nd
					for a != b {
						for a > b {
							a = doms[a]
						}
						for b > a {
							b = doms[b]
						}
					}
				}
				nd = a
			}
			if nd >= 0 && doms[i] != nd {
				doms[i] = nd
				changed = true
			}
		}
	}
	// rpo is dead from here on; reuse it for the result.
	idom = rpo
	for i := range idom {
		idom[i] = -1
	}
	for i := 1; i < len(order); i++ {
		idom[order[i]] = order[doms[i]]
	}
	return idom, order
}

// Dominates reports whether a dominates b (reflexively).
func (d *NodeDom) Dominates(a, b int) bool { return dominates(d.num, a, b) }

// Level returns v's depth in the tree (0 for the root and for
// unreachable nodes).
func (d *NodeDom) Level(v int) int { return int(d.num[v].level) }

// span is a node's place in a preorder numbering of a dominator
// forest: its own number, the last number in its subtree, and its
// depth.
type span struct{ pre, last, level int32 }

// dominates is the interval test: a dominates b iff b's preorder
// number falls inside a's subtree.
func dominates(num []span, a, b int) bool {
	sa, pb := num[a], num[b].pre
	return sa.pre <= pb && pb <= sa.last
}

// numberForest numbers the forest given by idom (-1 marks a root) in
// preorder. order lists nodes so that each one's immediate dominator
// precedes it; nodes missing from it must be roots without children
// (unreachable ones).
func numberForest(idom, order []int32) []span {
	// Subtree sizes, accumulated children first.
	size := make([]int32, len(idom))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if d := idom[v]; d >= 0 {
			size[d] += size[v]
		}
	}
	// A root takes the next free range; a child takes the next free
	// range inside its parent's. Once v is numbered, size[v] becomes
	// the cursor at which v's next child starts.
	num := make([]span, len(idom))
	next := int32(0)
	for _, v := range order {
		var s span
		if d := idom[v]; d < 0 {
			s.pre = next
			next += size[v]
		} else {
			s.pre = size[d]
			s.level = num[d].level + 1
			size[d] += size[v]
		}
		s.last = s.pre + size[v] - 1
		num[v] = s
		size[v] = s.pre + 1
	}
	for v, sz := range size {
		if sz == 0 {
			num[v] = span{pre: next, last: next}
			next++
		}
	}
	return num
}
