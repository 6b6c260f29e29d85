package dataflow

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Error("Set/Has broken")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Clear broken")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Errorf("ForEach = %v", got)
	}
	if s.Word(0) != 1 || s.Word(1) != 0 || s.Word(2) != 2 {
		t.Errorf("Word = %#x %#x %#x, want 0x1 0x0 0x2", s.Word(0), s.Word(1), s.Word(2))
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Error("Clone not equal")
	}
	c.Set(5)
	if c.Equal(s) {
		t.Error("Clone shares storage")
	}
}

func TestBitSetOps(t *testing.T) {
	a, b := NewBitSet(100), NewBitSet(100)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	u := a.Clone()
	if !u.Union(b) {
		t.Error("Union should report change")
	}
	if u.Count() != 3 {
		t.Errorf("union count = %d", u.Count())
	}
	if u.Union(b) {
		t.Error("second Union should be no-op")
	}
	i := a.Clone()
	if !i.Intersect(b) {
		t.Error("Intersect should report change")
	}
	if i.Count() != 1 || !i.Has(2) {
		t.Error("Intersect wrong")
	}
	d := a.Clone()
	d.Subtract(b)
	if d.Count() != 1 || !d.Has(1) {
		t.Error("Subtract wrong")
	}
}

func TestBitSetFill(t *testing.T) {
	s := NewBitSet(70)
	s.Fill()
	if s.Count() != 70 {
		t.Errorf("Fill count = %d, want 70", s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset broken")
	}
}

func TestBitSetProperties(t *testing.T) {
	// Union is idempotent and commutative on Count; Subtract then
	// Union restores a superset relation.
	f := func(xs, ys []uint8) bool {
		a, b := NewBitSet(256), NewBitSet(256)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		u1 := a.Clone()
		u1.Union(b)
		u2 := b.Clone()
		u2.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		// |A ∪ B| + |A ∩ B| == |A| + |B|
		in := a.Clone()
		in.Intersect(b)
		return u1.Count()+in.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildLinear constructs: entry: v0=1; v1=v0+v0; loop: v2=v1+v0;
// br -> loop|exit; exit: ret v2.
func buildLinear() *ir.Func {
	bu := ir.NewBuilder("lv", 0)
	entry := bu.Block("entry")
	loop := bu.F.NewBlock("loop")
	exit := bu.F.NewBlock("exit")

	bu.SetCurrent(entry)
	v0 := bu.Const(1)
	v1 := bu.Bin(ir.OpAdd, v0, v0)
	bu.Jmp(loop, 1)

	bu.SetCurrent(loop)
	v2 := bu.Bin(ir.OpAdd, v1, v0)
	bu.Br(v2, loop, exit, 9, 1)

	bu.SetCurrent(exit)
	bu.Ret(v2)
	return bu.Finish()
}

func TestLiveness(t *testing.T) {
	f := buildLinear()
	lv := ComputeLiveness(f)
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")
	v0, v1, v2 := int(ir.VirtBase), int(ir.VirtBase)+1, int(ir.VirtBase)+2

	// v0 and v1 are live into the loop (used there); v2 live into exit.
	if !lv.In[loop.ID].Has(v0) || !lv.In[loop.ID].Has(v1) {
		t.Error("v0,v1 should be live into loop")
	}
	if !lv.In[exit.ID].Has(v2) {
		t.Error("v2 should be live into exit")
	}
	if lv.In[exit.ID].Has(v0) {
		t.Error("v0 should be dead at exit")
	}
	// Loop-carried: v0, v1 live out of loop (back edge) and v2 too.
	if !lv.Out[loop.ID].Has(v0) || !lv.Out[loop.ID].Has(v1) || !lv.Out[loop.ID].Has(v2) {
		t.Error("loop out set wrong")
	}
	// Entry has nothing live in.
	if lv.In[f.Entry.ID].Count() != 0 {
		t.Errorf("entry live-in = %d regs, want 0", lv.In[f.Entry.ID].Count())
	}
}

func TestLiveAt(t *testing.T) {
	f := buildLinear()
	lv := ComputeLiveness(f)
	entry := f.Entry
	at := lv.LiveAt(entry)
	if len(at) != len(entry.Instrs) {
		t.Fatalf("LiveAt length %d, want %d", len(at), len(entry.Instrs))
	}
	v0 := int(ir.VirtBase)
	// Before the first instruction (v0 = const 1), v0 is not live.
	if at[0].Has(v0) {
		t.Error("v0 live before its definition")
	}
	// Before the add (v1 = v0+v0), v0 is live.
	if !at[1].Has(v0) {
		t.Error("v0 should be live before its use")
	}
}

func TestGenericForwardMust(t *testing.T) {
	// Availability-style: a fact set at entry survives along all paths
	// until a block kills it. Graph: A -> B,C -> D; C kills fact 0.
	bu := ir.NewBuilder("avail", 0)
	a := bu.Block("A")
	b := bu.F.NewBlock("B")
	c := bu.F.NewBlock("C")
	d := bu.F.NewBlock("D")
	bu.SetCurrent(a)
	cv := bu.Const(1)
	bu.Br(cv, b, c, 1, 1)
	bu.SetCurrent(b)
	bu.Jmp(d, 1)
	bu.SetCurrent(c)
	bu.Jmp(d, 1)
	bu.SetCurrent(d)
	bu.Ret(ir.NoReg)
	f := bu.Finish()

	sol := Solve(f, &Problem{
		Forward:  true,
		Union:    false,
		Universe: 2,
		Init: func(blk *ir.Block, v *BitSet) {
			if blk == f.Entry {
				v.Set(0)
				v.Set(1)
			}
		},
		Boundary: func(blk *ir.Block, v *BitSet) { v.Set(0); v.Set(1) },
		Transfer: func(blk *ir.Block, v *BitSet) {
			if blk.Name == "C" {
				v.Clear(0)
			}
		},
	})
	if !sol.In[b.ID].Has(0) {
		t.Error("fact 0 available into B")
	}
	if sol.In[d.ID].Has(0) {
		t.Error("fact 0 must not be available into D (killed on C path)")
	}
	if !sol.In[d.ID].Has(1) {
		t.Error("fact 1 available into D on all paths")
	}
}
