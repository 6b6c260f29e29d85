package tier

import (
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// buildTestProgram hand-builds a two-procedure program with a hot
// call-carrying loop and a value live across the call, so allocation
// assigns a callee-saved register and placement has real work.
func buildTestProgram() *ir.Program {
	prog := ir.NewProgram()

	bu := ir.NewBuilder("p0", 1)
	bu.Block("entry")
	acc := bu.F.NewVirt()
	bu.Mov(acc, bu.F.Params[0])
	iv := bu.F.NewVirt()
	bu.ConstInto(iv, 0)
	header := bu.F.NewBlock("lp")
	exit := bu.F.NewBlock("dn")
	bu.Jmp(header, 0)
	bu.SetCurrent(header)
	three := bu.Const(3)
	bu.BinInto(ir.OpAdd, acc, acc, three)
	one := bu.Const(1)
	bu.BinInto(ir.OpAdd, iv, iv, one)
	tr := bu.Const(8)
	c := bu.Bin(ir.OpCmpLT, iv, tr)
	bu.Br(c, header, exit, 0, 0)
	bu.SetCurrent(exit)
	bu.Ret(acc)
	prog.Add(bu.Finish())

	bu = ir.NewBuilder("main", 1)
	bu.Block("entry")
	t := bu.F.NewVirt()
	bu.Mov(t, bu.F.Params[0])
	i := bu.F.NewVirt()
	bu.ConstInto(i, 0)
	loop := bu.F.NewBlock("loop")
	exit = bu.F.NewBlock("exit")
	bu.Jmp(loop, 0)
	bu.SetCurrent(loop)
	five := bu.Const(5)
	live := bu.Bin(ir.OpMul, t, five)
	r := bu.F.NewVirt()
	bu.Call(r, "p0", t)
	bu.BinInto(ir.OpAdd, t, r, live)
	mask := bu.Const(0xffff)
	bu.BinInto(ir.OpAnd, t, t, mask)
	one = bu.Const(1)
	bu.BinInto(ir.OpAdd, i, i, one)
	n := bu.Const(50)
	c = bu.Bin(ir.OpCmpLT, i, n)
	bu.Br(c, loop, exit, 0, 0)
	bu.SetCurrent(exit)
	bu.Ret(t)
	prog.Add(bu.Finish())

	prog.Main = "main"
	return prog
}

// TestStaticEqualProfileIsNoOp: the boundary's weight write-back with
// a profile equal to the static estimate must be the identity — the
// re-aligned, re-placed program is byte-identical to the statically
// aligned and placed one. The test replays the boundary mechanics on
// an unrun tier-0 clone: placement copies each split edge's weight
// onto its replacement edges, so mapping back through the recorded
// splits must reconstruct the original static weights exactly.
//
// testdata/noop.ir (a generator program pinned because its placement
// puts spill code on an edge) makes the edge-split mapping path
// non-vacuous; the hierarchical-exec strategy is the one that chooses
// the edge location under the estimated weights.
func TestStaticEqualProfileIsNoOp(t *testing.T) {
	mach := machine.PARISC()
	cfg := Config{Machine: mach, Strategy: strategy.HierarchicalExec, Parallelism: 1}

	src, err := os.ReadFile("testdata/noop.ir")
	if err != nil {
		t.Fatal(err)
	}
	base, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	profile.EstimateProgramMachine(base, mach, nil)
	if _, err := regalloc.AllocateProgramParallel(base, mach, 1); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	a := base.Clone()
	b := base.Clone()

	// Arm A: tier-0 clone placed exactly as Run places it, weights
	// mapped back without running (i.e. a measured profile that equals
	// the static estimate).
	p0 := a.Clone()
	corr, err := edgeCorrespondence(p0, a)
	if err != nil {
		t.Fatalf("correspondence: %v", err)
	}
	for _, f := range p0.FuncsInOrder() {
		layout.Align(f)
	}
	splitFrom := make(map[*ir.Edge]*ir.Edge)
	cache := analysis.NewCache()
	for _, f := range strategy.NeedsPlacement(p0) {
		delta, err := strategy.Place(f, cfg.Strategy, cache.For(f), cfg.Machine)
		if err != nil {
			t.Fatalf("tier-0 placement: %s: %v", f.Name, err)
		}
		for _, s := range delta.Splits {
			splitFrom[s.OldEdge] = s.FromEdge
		}
	}
	if len(splitFrom) == 0 {
		t.Fatal("placement split no edges; the no-op check is vacuous")
	}
	for e0, e := range corr {
		if fe := splitFrom[e0]; fe != nil {
			e.Weight = fe.Weight
		} else {
			e.Weight = e0.Weight
		}
	}

	// The write-back must have reconstructed the static weights bit
	// for bit before any re-placement happens.
	ae, be := a.FuncsInOrder(), b.FuncsInOrder()
	for i := range ae {
		aEdges, bEdges := ae[i].Edges(), be[i].Edges()
		for j := range aEdges {
			if aEdges[j].Weight != bEdges[j].Weight {
				t.Fatalf("%s edge %d: mapped weight %d != static %d",
					ae[i].Name, j, aEdges[j].Weight, bEdges[j].Weight)
			}
		}
	}

	if err := alignAndPlace(a, cfg, nil); err != nil {
		t.Fatalf("arm A: %v", err)
	}
	if err := alignAndPlace(b, cfg, nil); err != nil {
		t.Fatalf("arm B: %v", err)
	}
	if got, want := irtext.Print(a), irtext.Print(b); got != want {
		t.Errorf("static-equal tiering is not a no-op:\n-- tiered --\n%s\n-- static --\n%s", got, want)
	}
}

// TestBoundaryMapsSplitEdgeCounts: at a tier boundary, every edge that
// tier 0's placement split takes the count measured on its
// From->jump-block half. The test replays tier 0 on a clone of the
// same input — place, profile for the quantum, map the counts back
// through the placement deltas' splits — and requires Run's final
// program, printed edge weights included, to match the replay's.
func TestBoundaryMapsSplitEdgeCounts(t *testing.T) {
	mach := machine.PARISC()
	const quantum = 1000
	cfg := Config{Machine: mach, Strategy: strategy.HierarchicalExec, Quantum: quantum, Parallelism: 1, NoAlign: true}
	src, err := os.ReadFile("testdata/noop.ir")
	if err != nil {
		t.Fatal(err)
	}
	base, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	profile.EstimateProgramMachine(base, mach, nil)
	if _, err := regalloc.AllocateProgramParallel(base, mach, 1); err != nil {
		t.Fatal(err)
	}
	want := base.Clone()

	p0 := want.Clone()
	corr, err := edgeCorrespondence(p0, want)
	if err != nil {
		t.Fatal(err)
	}
	splitFrom := make(map[*ir.Edge]*ir.Edge)
	for _, f := range strategy.NeedsPlacement(p0) {
		delta, err := strategy.Place(f, cfg.Strategy, nil, cfg.Machine)
		if err != nil {
			t.Fatalf("tier-0 placement: %s: %v", f.Name, err)
		}
		for _, s := range delta.Splits {
			splitFrom[s.OldEdge] = s.FromEdge
		}
	}
	if len(splitFrom) == 0 {
		t.Fatal("tier 0 split no edges; the mapping check is vacuous")
	}
	st0, _, completed, err := profile.CollectPartial(p0, vm.Config{Machine: mach, MaxSteps: quantum}, 7)
	if err != nil || completed {
		t.Fatalf("tier-0 replay: completed=%v err=%v; want a boundary", completed, err)
	}
	for e0, e := range corr {
		e.Weight = e0.Weight
		if fe := splitFrom[e0]; fe != nil {
			e.Weight = fe.Weight
		}
	}
	for _, f := range want.FuncsInOrder() {
		f.EntryCount = st0.Calls[f.Name]
	}
	if err := alignAndPlace(want, cfg, nil); err != nil {
		t.Fatal(err)
	}

	res, err := Run(base, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Boundary {
		t.Fatal("Run hit no boundary")
	}
	if got, want := irtext.Print(res.Final), irtext.Print(want); got != want {
		t.Errorf("tiered program differs from the tier-0 replay:\n-- Run --\n%s\n-- replay --\n%s", got, want)
	}
}
