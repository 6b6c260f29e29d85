package regalloc

import (
	"testing"

	"repro/internal/ir"
)

// TestPickNeighborSpill pins the precolored-conflict fallback on a
// hand-built graph: node 0 is precolored and neighbors 1..4.
func TestPickNeighborSpill(t *testing.T) {
	uniform := pricer{store: 1, load: 1}
	build := func(costs map[int]int64) *graph {
		g := newGraph(6)
		g.pre[0] = ir.Phys(0)
		for v := 1; v <= 4; v++ {
			g.addEdge(0, v)
			g.useCost[v] = costs[v]
		}
		g.addEdge(1, 5) // not a neighbor of 0: never a candidate
		return g
	}

	t.Run("cheapest", func(t *testing.T) {
		g := build(map[int]int64{1: 9, 2: 7, 3: 3, 4: 8})
		if got := pickNeighborSpill(g, 0, nil, uniform); got != ir.Virt(3) {
			t.Fatalf("picked %v, want v3 (cheapest neighbor)", got)
		}
	})
	t.Run("tie-lowest-register", func(t *testing.T) {
		g := build(map[int]int64{1: 9, 2: 4, 3: 7, 4: 4})
		if got := pickNeighborSpill(g, 0, nil, uniform); got != ir.Virt(2) {
			t.Fatalf("picked %v, want v2 (lowest of the cost-4 tie)", got)
		}
	})
	t.Run("skips-precolored-and-temps", func(t *testing.T) {
		g := build(map[int]int64{1: 1, 2: 2, 3: 3, 4: 4})
		g.pre[1] = ir.Phys(1)
		noSpill := []bool{false, false, true}
		if got := pickNeighborSpill(g, 0, noSpill, uniform); got != ir.Virt(3) {
			t.Fatalf("picked %v, want v3 (v1 precolored, v2 a spill temp)", got)
		}
	})
	t.Run("fallback-self", func(t *testing.T) {
		g := build(map[int]int64{1: 1, 2: 2, 3: 3, 4: 4})
		g.pre[1], g.pre[2] = ir.Phys(1), ir.Phys(2)
		noSpill := []bool{false, false, false, true, true}
		if got := pickNeighborSpill(g, 0, noSpill, uniform); got != ir.Virt(0) {
			t.Fatalf("picked %v, want v0 (no spillable neighbor)", got)
		}
	})
	t.Run("priced", func(t *testing.T) {
		// Under store 8 / load 1, v1's single def outweighs v2's
		// four uses.
		g := build(nil)
		g.defCost[1] = 1
		g.useCost[2] = 4
		g.defCost[3], g.useCost[3] = 1, 1
		g.defCost[4], g.useCost[4] = 2, 0
		if got := pickNeighborSpill(g, 0, nil, pricer{store: 8, load: 1}); got != ir.Virt(2) {
			t.Fatalf("picked %v, want v2 (cheapest under store 8 / load 1)", got)
		}
	})
}
