package cfg_test

// Differential tests of the dominator core against the textbook
// definition: dom(root) = {root} and dom(v) = {v} ∪ ⋂ dom(p) over v's
// predecessors p, iterated to a fixpoint. Every node pair of every
// graph is checked — idom, level and the dominance relation — on
// random digraphs (unreachable nodes, infinite loops, several exits,
// irreducible cycles), irgen's procedures and their PST edge-split
// graphs, hand-written multi-exit CFGs and the multi-entry cycle.

import (
	"fmt"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cfgtest"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// refTree is a dominator relation computed by the naive fixpoint.
type refTree struct {
	dom   [][]bool // dom[v][a]: a dominates v
	idom  []int    // -1 for the root and unreachable nodes
	level []int    // 0 for the root and unreachable nodes
}

// naiveDominators computes dominator sets over succs from root. A node
// unreachable from root dominates only itself.
func naiveDominators(succs [][]int, root int) *refTree {
	n := len(succs)
	preds := make([][]int, n)
	for u, ss := range succs {
		for _, v := range ss {
			preds[v] = append(preds[v], u)
		}
	}
	reach := make([]bool, n)
	reach[root] = true
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range succs[u] {
			if !reach[v] {
				reach[v] = true
				stack = append(stack, v)
			}
		}
	}
	dom := make([][]bool, n)
	for v := range dom {
		dom[v] = make([]bool, n)
		switch {
		case v == root || !reach[v]:
			dom[v][v] = true
		default:
			for a := range dom[v] {
				dom[v][a] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if v == root || !reach[v] {
				continue
			}
			for a := 0; a < n; a++ {
				in := a == v
				if !in {
					in = true
					for _, p := range preds[v] {
						if reach[p] && !dom[p][a] {
							in = false
							break
						}
					}
				}
				if dom[v][a] != in {
					dom[v][a] = in
					changed = true
				}
			}
		}
	}
	t := &refTree{dom: dom, idom: make([]int, n), level: make([]int, n)}
	for v := 0; v < n; v++ {
		t.idom[v] = -1
		size := 0
		for a := 0; a < n; a++ {
			if dom[v][a] {
				size++
			}
		}
		t.level[v] = size - 1
		// The immediate dominator is the strict dominator whose own
		// dominator set is one smaller than v's.
		for a := 0; a < n; a++ {
			if a != v && dom[v][a] && countTrue(dom[a]) == size-1 {
				t.idom[v] = a
			}
		}
	}
	return t
}

func countTrue(s []bool) int {
	n := 0
	for _, x := range s {
		if x {
			n++
		}
	}
	return n
}

// checkNodeDom compares the dominator core on the graph with the naive
// reference, over every node pair.
func checkNodeDom(t *testing.T, tag string, succs [][]int, root int) {
	t.Helper()
	var from, to []int32
	for u, ss := range succs {
		for _, v := range ss {
			from = append(from, int32(u))
			to = append(to, int32(v))
		}
	}
	got := cfg.NodeDominators(cfg.NewGraph(len(succs), from, to), root)
	want := naiveDominators(succs, root)
	for v := range succs {
		if int(got.IDom[v]) != want.idom[v] {
			t.Fatalf("%s: idom(%d) = %d, want %d", tag, v, got.IDom[v], want.idom[v])
		}
		if got.Level(v) != want.level[v] {
			t.Fatalf("%s: level(%d) = %d, want %d", tag, v, got.Level(v), want.level[v])
		}
		for a := range succs {
			if got.Dominates(a, v) != want.dom[v][a] {
				t.Fatalf("%s: Dominates(%d, %d) = %v, want %v", tag, a, v, got.Dominates(a, v), want.dom[v][a])
			}
		}
	}
}

// reverse returns the graph with every edge reversed.
func reverse(succs [][]int) [][]int {
	r := make([][]int, len(succs))
	for u, ss := range succs {
		for _, v := range ss {
			r[v] = append(r[v], u)
		}
	}
	return r
}

// funcSuccs returns f's CFG as successor lists over block IDs.
func funcSuccs(f *ir.Func) [][]int {
	succs := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			succs[b.ID] = append(succs[b.ID], e.To.ID)
		}
	}
	return succs
}

// checkFunc compares cfg.Dominators and cfg.Postdominators of f with
// the naive reference. Postdominance is dominance on the reverse CFG
// from a virtual exit that reaches every exit block; the DomTree
// encodes that virtual root as a nil IDom and levels count from the
// exits.
func checkFunc(t *testing.T, tag string, f *ir.Func) {
	t.Helper()
	n := len(f.Blocks)
	succs := funcSuccs(f)
	checkNodeDom(t, tag+"/nodes", succs, f.Entry.ID)

	dom := cfg.Dominators(f)
	want := naiveDominators(succs, f.Entry.ID)
	checkTree(t, tag+"/dom", f, dom, want)

	rsuccs := append(reverse(succs), nil)
	for _, b := range f.Exits() {
		rsuccs[n] = append(rsuccs[n], b.ID)
	}
	checkNodeDom(t, tag+"/postnodes", rsuccs, n)
	pwant := naiveDominators(rsuccs, n)
	for v := 0; v < n; v++ {
		if pwant.idom[v] == n {
			pwant.idom[v] = -1
		}
		if pwant.level[v] > 0 {
			pwant.level[v]-- // the virtual exit is not a level
		}
	}
	checkTree(t, tag+"/pdom", f, cfg.Postdominators(f), pwant)
}

func checkTree(t *testing.T, tag string, f *ir.Func, got *cfg.DomTree, want *refTree) {
	t.Helper()
	for _, b := range f.Blocks {
		var wantIDom *ir.Block
		if d := want.idom[b.ID]; d >= 0 {
			wantIDom = f.Blocks[d]
		}
		if got.IDom[b.ID] != wantIDom {
			t.Fatalf("%s: idom(%s) = %v, want %v", tag, b.Name, got.IDom[b.ID], wantIDom)
		}
		if got.Level(b) != want.level[b.ID] {
			t.Fatalf("%s: level(%s) = %d, want %d", tag, b.Name, got.Level(b), want.level[b.ID])
		}
		for _, c := range got.Children[b.ID] {
			if got.IDom[c.ID] != b {
				t.Fatalf("%s: %s listed as a child of %s but its idom is %v", tag, c.Name, b.Name, got.IDom[c.ID])
			}
		}
		for _, a := range f.Blocks {
			if got.Dominates(a, b) != want.dom[b.ID][a.ID] {
				t.Fatalf("%s: Dominates(%s, %s) = %v, want %v", tag, a.Name, b.Name, got.Dominates(a, b), want.dom[b.ID][a.ID])
			}
			if got.StrictlyDominates(a, b) != (a != b && want.dom[b.ID][a.ID]) {
				t.Fatalf("%s: StrictlyDominates(%s, %s) wrong", tag, a.Name, b.Name)
			}
		}
	}
}

// splitSuccs builds the PST's edge-split graph of f: the blocks, START
// (node n) and END (node n+1), then one node per augmented edge —
// START->entry, every CFG edge, every exit->END — sitting between the
// edge's endpoints.
func splitSuccs(f *ir.Func) (succs [][]int, start, end int) {
	n := len(f.Blocks)
	start, end = n, n+1
	succs = make([][]int, n+2)
	link := func(u, v int) {
		e := len(succs)
		succs = append(succs, []int{v})
		succs[u] = append(succs[u], e)
	}
	link(start, f.Entry.ID)
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			link(b.ID, e.To.ID)
		}
		if b.IsExit() {
			link(b.ID, end)
		}
	}
	return succs, start, end
}

// rawFunc builds a function over blocks b0..b(n-1) with the given
// edges, giving every block without successors a ret. It skips
// ir.Verify so graphs may hold unreachable blocks and blocks that
// never reach an exit.
func rawFunc(n int, edges [][2]int) *ir.Func {
	f := ir.NewFunc(fmt.Sprintf("raw%d", n))
	bs := make([]*ir.Block, n)
	for i := range bs {
		bs[i] = f.NewBlock("")
	}
	for _, e := range edges {
		f.AddEdge(bs[e[0]], bs[e[1]], ir.Jump, 1)
	}
	for _, b := range bs {
		if len(b.Succs) == 0 {
			b.Append(&ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg})
		}
	}
	return f
}

// TestDominatorsMatchNaiveRandom checks random digraphs of 1-14
// nodes: unreachable nodes, nodes that cannot reach an exit, zero or
// several exits, self-loops and irreducible cycles all occur.
func TestDominatorsMatchNaiveRandom(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func(k int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(k))
	}
	for g := 0; g < 600; g++ {
		n := 1 + next(14)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for k := next(4); k > 0; k-- {
				edges = append(edges, [2]int{u, next(n)})
			}
		}
		checkFunc(t, fmt.Sprintf("random%d", g), rawFunc(n, edges))
	}
}

// TestDominatorsMatchNaiveCrafted covers the named shapes: unreachable
// blocks, an infinite loop that cannot reach the exit, multi-exit CFGs
// and the two-entry cycle of the irreducible-CFG test.
func TestDominatorsMatchNaiveCrafted(t *testing.T) {
	// b0 -> b1 -> b2 (ret); b3 -> b1 is unreachable; b0 -> b4 -> b4
	// never reaches an exit.
	checkFunc(t, "unreachable+noexit", rawFunc(5, [][2]int{{0, 1}, {1, 2}, {3, 1}, {0, 4}, {4, 4}}))
	// No exit at all.
	checkFunc(t, "noexit", rawFunc(3, [][2]int{{0, 1}, {1, 2}, {2, 1}}))
	for _, f := range []*ir.Func{
		cfgtest.MustBuild("multiexit", []string{"A", "B", "C"},
			[]cfgtest.Edge{cfgtest.E("A", "B", 1), cfgtest.E("A", "C", 1)}),
		cfgtest.MustBuild("chain", []string{"A", "B", "C", "D"},
			[]cfgtest.Edge{cfgtest.E("A", "B", 5), cfgtest.E("B", "C", 2), cfgtest.E("B", "D", 3)}),
		cfgtest.MustBuild("loopexits", []string{"A", "H", "B", "X", "Y"},
			[]cfgtest.Edge{cfgtest.E("A", "H", 1), cfgtest.E("H", "B", 5), cfgtest.E("H", "X", 1),
				cfgtest.E("B", "H", 4), cfgtest.E("B", "Y", 1)}),
		cfgtest.MustBuild("irr", []string{"A", "B", "C", "X"},
			[]cfgtest.Edge{cfgtest.E("A", "B", 30), cfgtest.E("A", "C", 70),
				cfgtest.E("B", "C", 40), cfgtest.E("C", "B", 50), cfgtest.E("B", "X", 40)}),
	} {
		checkFunc(t, f.Name, f)
		succs, start, end := splitSuccs(f)
		checkNodeDom(t, f.Name+"/split", succs, start)
		checkNodeDom(t, f.Name+"/splitpost", reverse(succs), end)
	}
}

// TestDominatorsMatchNaiveGenerated checks irgen's procedures and the
// edge-split graphs the PST builds over them, forward from START and
// backward from END.
func TestDominatorsMatchNaiveGenerated(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, fam := range []struct {
		name string
		cfg  irgen.Config
	}{
		{"default", irgen.Default()},
		{"crossover", irgen.Crossover()},
		{"hostile", irgen.Hostile()},
	} {
		for seed := uint64(0); seed < seeds; seed++ {
			for _, f := range irgen.Generate(seed, fam.cfg).FuncsInOrder() {
				tag := fmt.Sprintf("%s/%d/%s", fam.name, seed, f.Name)
				checkFunc(t, tag, f)
				succs, start, end := splitSuccs(f)
				checkNodeDom(t, tag+"/split", succs, start)
				checkNodeDom(t, tag+"/splitpost", reverse(succs), end)
			}
		}
	}
}
