package pst

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Region is a maximal SESE region: the span between the dominating and
// postdominating edges of one cycle-equivalence class.
//
// Boundary encoding:
//   - interior region: EntryEdge and ExitEdge are real CFG edges
//   - EntryEdge == nil: the region's entry is procedure entry
//   - ExitEdge == nil, ExitBlock != nil: the exit is the end of that
//     specific exit block (the augmented exit->END edge)
//   - ExitEdge == nil, ExitBlock == nil: the exit is every procedure
//     exit (root region only)
type Region struct {
	EntryEdge *ir.Edge
	ExitEdge  *ir.Edge
	ExitBlock *ir.Block

	// Blocks contains the region body in layout order, including
	// blocks of nested regions.
	Blocks []*ir.Block

	Parent   *Region
	Children []*Region
	// Depth is 0 for the root, increasing inward.
	Depth int

	in *dataflow.BitSet // member block IDs
}

// has reports whether the block with the given ID is a member.
func (r *Region) has(id int) bool { return id < r.in.Len() && r.in.Has(id) }

// IsRoot reports whether the region is the whole procedure.
func (r *Region) IsRoot() bool { return r.Parent == nil }

// ContainsBlock reports whether b lies inside the region.
func (r *Region) ContainsBlock(b *ir.Block) bool { return r.has(b.ID) }

// ContainsEdge reports whether both endpoints of e lie inside the
// region (the region's own boundary edges are NOT contained).
func (r *Region) ContainsEdge(e *ir.Edge) bool {
	return r.has(e.From.ID) && r.has(e.To.ID)
}

// EntryWeight is the dynamic execution count of the region's entry
// boundary.
func (r *Region) EntryWeight(f *ir.Func) int64 {
	if r.EntryEdge != nil {
		return r.EntryEdge.Weight
	}
	return f.EntryCount
}

// ExitWeight is the dynamic execution count of the region's exit
// boundary (summed over all procedure exits for the root).
func (r *Region) ExitWeight(f *ir.Func) int64 {
	if r.ExitEdge != nil {
		return r.ExitEdge.Weight
	}
	if r.ExitBlock != nil {
		return r.ExitBlock.ExecCount()
	}
	var n int64
	for _, b := range f.Exits() {
		n += b.ExecCount()
	}
	return n
}

// String renders the region boundaries for diagnostics.
func (r *Region) String() string {
	entry := "proc-entry"
	if r.EntryEdge != nil {
		entry = r.EntryEdge.From.Name + "->" + r.EntryEdge.To.Name
	}
	exit := "proc-exit"
	switch {
	case r.ExitEdge != nil:
		exit = r.ExitEdge.From.Name + "->" + r.ExitEdge.To.Name
	case r.ExitBlock != nil:
		exit = "end-of-" + r.ExitBlock.Name
	}
	names := make([]string, len(r.Blocks))
	for i, b := range r.Blocks {
		names[i] = b.Name
	}
	return fmt.Sprintf("region[%s .. %s]{%s}", entry, exit, strings.Join(names, " "))
}

// PST is the Program Structure Tree of maximal SESE regions.
type PST struct {
	Func    *ir.Func
	Root    *Region
	Regions []*Region // all regions including the root
}

// Mode selects which SESE regions form the tree.
type Mode int

const (
	// Maximal regions (one per cycle-equivalence class, spanning its
	// dominating to its postdominating edge) are what the paper's
	// algorithm requires: region boundaries are exactly the points
	// where execution frequency can change.
	Maximal Mode = iota
	// Canonical regions are Johnson/Pearson/Pingali's original
	// smallest regions: one per consecutive edge pair of a class
	// chain. Provided for comparison; the hierarchical algorithm
	// produces equal-cost placements over either tree because all
	// edges of one class run at the same frequency, but the canonical
	// tree is larger. See the canonical-vs-maximal ablation tests.
	Canonical
)

// Build computes the PST of f over maximal SESE regions (what the
// paper's algorithm uses). The function must pass ir.Verify and have
// at least one exit block.
func Build(f *ir.Func) (*PST, error) { return BuildMode(f, Maximal) }

// BuildMode computes the PST with the chosen region mode.
func BuildMode(f *ir.Func, mode Mode) (*PST, error) {
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("pst.Build: %w", err)
	}
	if len(f.Exits()) == 0 {
		return nil, fmt.Errorf("pst.Build(%s): function has no exit block", f.Name)
	}
	return buildWith(f, mode, computeInternals(f))
}

// internals holds the expensive intermediate structures of one PST
// construction: the augmented graph, the cycle-equivalence classes,
// and the dominator and postdominator trees of the edge-split graph
// (see splitGraph for its node numbering). A Builder memoizes them
// across calls; they stay valid for as long as the CFG shape (blocks
// and edges) is unchanged.
type internals struct {
	a       *augGraph
	classes [][]int32
	dom     *cfg.NodeDom
	pdom    *cfg.NodeDom
}

func computeInternals(f *ir.Func) *internals {
	a := buildAug(f)
	split := splitGraph(a)
	return &internals{
		a:       a,
		classes: groupClasses(cycleEquivalence(a)),
		dom:     cfg.NodeDominators(split, a.start),
		pdom:    cfg.NodeDominators(split.Reverse(), a.end),
	}
}

// buildWith constructs the region tree from precomputed internals.
func buildWith(f *ir.Func, mode Mode, in *internals) (*PST, error) {
	a, dom, pdom := in.a, in.dom, in.pdom
	closeIdx := int32(len(a.edges) - 1)

	var regions []*Region
	var edges []int32
	var members, backing []*ir.Block
	for _, class := range in.classes {
		// Drop the END->START edge from the chain; it orders last.
		hasClose := false
		edges = edges[:0]
		for _, i := range class {
			if i == closeIdx {
				hasClose = true
				continue
			}
			edges = append(edges, i)
		}
		if len(edges) < 2 && !(hasClose && len(edges) >= 1) {
			continue
		}
		// Order the class chain by dominance of the split nodes.
		slices.SortFunc(edges, func(x, y int32) int {
			return dom.Level(a.edgeNode(x)) - dom.Level(a.edgeNode(y))
		})
		// Verify the chain is totally ordered (defensive: theory says
		// it always is; a hash collision would break it).
		for i := 0; i+1 < len(edges); i++ {
			if !dom.Dominates(a.edgeNode(edges[i]), a.edgeNode(edges[i+1])) {
				return nil, fmt.Errorf("pst.BuildMode(%s): cycle-equivalence class not chain-ordered (signature collision?)", f.Name)
			}
		}

		// makeSpan builds the region between two chain positions, or
		// nil when it holds no block; a to index of -1 means the
		// virtual end (all procedure exits).
		makeSpan := func(fromIdx, toIdx int32) *Region {
			xn := -1
			if toIdx >= 0 {
				xn = a.edgeNode(toIdx)
			}
			// Membership: block x is in region (a,b) iff node(a)
			// dominates x and node(b) postdominates x in the edge-split
			// graph.
			en := a.edgeNode(fromIdx)
			members = members[:0]
			for _, b := range f.Blocks {
				if dom.Dominates(en, b.ID) && (xn < 0 || pdom.Dominates(xn, b.ID)) {
					members = append(members, b)
				}
			}
			if len(members) == 0 {
				return nil
			}
			r := &Region{in: dataflow.NewBitSet(len(f.Blocks))}
			if first := a.edges[fromIdx]; !first.isEntry {
				r.EntryEdge = first.real
			}
			if toIdx >= 0 {
				if last := a.edges[toIdx]; last.real != nil {
					r.ExitEdge = last.real
				} else {
					r.ExitBlock = last.exitFrom
				}
			}
			// Every region's Blocks is carved from one shared array,
			// capped so that appending to one reallocates it.
			if cap(backing)-len(backing) < len(members) {
				backing = make([]*ir.Block, 0, max(4*len(f.Blocks), len(members)))
			}
			k := len(backing)
			backing = append(backing, members...)
			r.Blocks = backing[k:len(backing):len(backing)]
			for _, b := range members {
				r.in.Set(b.ID)
			}
			return r
		}
		add := func(r *Region) {
			if r != nil {
				regions = append(regions, r)
			}
		}

		switch mode {
		case Maximal:
			if hasClose {
				add(makeSpan(edges[0], -1))
			} else {
				add(makeSpan(edges[0], edges[len(edges)-1]))
			}
		case Canonical:
			for i := 0; i+1 < len(edges); i++ {
				add(makeSpan(edges[i], edges[i+1]))
			}
			if hasClose {
				// The pair ending at the virtual close edge, plus the
				// whole-procedure root all canonical regions nest in.
				add(makeSpan(edges[len(edges)-1], -1))
				if len(edges) > 1 {
					add(makeSpan(edges[0], -1))
				}
			}
		}
	}

	root, err := assemble(f, regions)
	if err != nil {
		return nil, err
	}
	return &PST{Func: f, Root: root, Regions: regions}, nil
}

// assemble derives the nesting structure of a region set: it sorts the
// regions deterministically, links parents and children, finds the
// root, and sets depths. Build and the edge-split patch share it so a
// patched tree is structurally identical to a rebuilt one. Regions'
// Parent/Children links are reset and recomputed from membership.
func assemble(f *ir.Func, regions []*Region) (*Region, error) {
	for _, r := range regions {
		r.Parent = nil
		r.Children = nil
		slices.SortFunc(r.Blocks, func(x, y *ir.Block) int { return x.ID - y.ID })
	}
	// Nesting: parent = smallest region strictly containing the child.
	// The comparator is a total order (distinct regions with identical
	// block sets differ in their boundaries), so the final region order
	// does not depend on the order regions were discovered in.
	sort.Slice(regions, func(i, j int) bool {
		ri, rj := regions[i], regions[j]
		if len(ri.Blocks) != len(rj.Blocks) {
			return len(ri.Blocks) < len(rj.Blocks)
		}
		if ri.Blocks[0].ID != rj.Blocks[0].ID {
			return ri.Blocks[0].ID < rj.Blocks[0].ID
		}
		ki, kj := boundaryKey(ri), boundaryKey(rj)
		for x := range ki {
			if ki[x] != kj[x] {
				return ki[x] < kj[x]
			}
		}
		return false
	})
	var root *Region
	for i, r := range regions {
		for j := i + 1; j < len(regions); j++ {
			if containsAll(regions[j], r) {
				r.Parent = regions[j]
				regions[j].Children = append(regions[j].Children, r)
				break
			}
		}
		if r.Parent == nil && len(r.Blocks) == len(f.Blocks) {
			root = r
		}
	}
	if root == nil {
		// Should not happen: the class of START->entry always covers
		// every block. Guard anyway.
		return nil, fmt.Errorf("pst.BuildMode(%s): no root region found", f.Name)
	}
	// Any parentless non-root region hangs off the root (can occur if
	// its blocks equal the whole function but it is not the aug chain;
	// containsAll with equal sets attaches it above, so this is rare).
	for _, r := range regions {
		if r != root && r.Parent == nil {
			r.Parent = root
			root.Children = append(root.Children, r)
		}
	}
	for _, r := range regions {
		sort.Slice(r.Children, func(i, j int) bool {
			return r.Children[i].Blocks[0].ID < r.Children[j].Blocks[0].ID
		})
	}
	var setDepth func(r *Region, d int)
	setDepth = func(r *Region, d int) {
		r.Depth = d
		for _, c := range r.Children {
			setDepth(c, d+1)
		}
	}
	setDepth(root, 0)
	return root, nil
}

// boundaryKey encodes a region's boundary as a sortable tuple so the
// region sort has a total order even between regions with identical
// block sets.
func boundaryKey(r *Region) [4]int {
	k := [4]int{-1, -1, -1, -1}
	if r.EntryEdge != nil {
		k[0], k[1] = r.EntryEdge.From.ID, r.EntryEdge.To.ID
	}
	switch {
	case r.ExitEdge != nil:
		k[2], k[3] = r.ExitEdge.From.ID, r.ExitEdge.To.ID
	case r.ExitBlock != nil:
		k[2] = r.ExitBlock.ID
	}
	return k
}

// containsAll reports whether outer strictly contains inner: a
// superset of blocks and strictly larger.
func containsAll(outer, inner *Region) bool {
	if len(outer.Blocks) <= len(inner.Blocks) {
		return false
	}
	for _, b := range inner.Blocks {
		if !outer.has(b.ID) {
			return false
		}
	}
	return true
}

// BottomUp returns the regions in topological order for the paper's
// traversal: every region appears after all of its children (smallest
// regions first, root last).
func (t *PST) BottomUp() []*Region {
	var out []*Region
	var walk func(r *Region)
	walk = func(r *Region) {
		for _, c := range r.Children {
			walk(c)
		}
		out = append(out, r)
	}
	walk(t.Root)
	return out
}

// SmallestContaining returns the innermost region containing block b.
func (t *PST) SmallestContaining(b *ir.Block) *Region {
	r := t.Root
	for {
		next := r
		for _, c := range r.Children {
			if c.ContainsBlock(b) {
				next = c
				break
			}
		}
		if next == r {
			return r
		}
		r = next
	}
}
