package regalloc_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// sparseStride spreads virtual register i to v(i*sparseStride +
// sparseStride-1), far past the dense-numbering threshold.
const sparseStride = 1000

// sparsify renames every virtual register of f through the stride and
// returns the function's original NumVirt.
func sparsify(f *ir.Func) int {
	sub := func(r ir.Reg) ir.Reg {
		if r.IsVirt() {
			return ir.Virt(r.VirtNum()*sparseStride + sparseStride - 1)
		}
		return r
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.Dst, in.Src1, in.Src2 = sub(in.Dst), sub(in.Src1), sub(in.Src2)
			for i, a := range in.Args {
				in.Args[i] = sub(a)
			}
		}
	}
	for i, p := range f.Params {
		f.Params[i] = sub(p)
	}
	n := f.NumVirt
	f.NumVirt *= sparseStride
	return n
}

// TestSparseNumberingMatchesDense: a function that names its virtual
// registers sparsely allocates exactly like its densely named twin —
// same code, same spills in the same order, reported under the
// function's own names (spill temporaries numbered past them, as the
// function's NewVirt numbers them).
func TestSparseNumberingMatchesDense(t *testing.T) {
	m := machine.Small(6, 3)
	spills := 0
	for _, cfg := range []irgen.Config{irgen.Default(), irgen.Hostile()} {
		for seed := uint64(0); seed < 10; seed++ {
			dense := irgen.Generate(seed, cfg)
			sparse := irgen.Generate(seed, cfg)
			numVirt := map[string]int{}
			for _, f := range sparse.FuncsInOrder() {
				numVirt[f.Name] = sparsify(f)
			}
			dres, err := regalloc.AllocateProgram(dense, m)
			if err != nil {
				t.Fatalf("seed %d dense: %v", seed, err)
			}
			sres, err := regalloc.AllocateProgram(sparse, m)
			if err != nil {
				t.Fatalf("seed %d sparse: %v", seed, err)
			}
			if irtext.Print(dense) != irtext.Print(sparse) {
				t.Fatalf("seed %d: sparse numbering changed the allocated program", seed)
			}
			for name, d := range dres {
				n := numVirt[name]
				rename := func(r ir.Reg) ir.Reg {
					if i := r.VirtNum(); i >= n {
						return ir.Virt(i - n + n*sparseStride)
					}
					return ir.Virt(r.VirtNum()*sparseStride + sparseStride - 1)
				}
				want := *d
				want.Spilled = nil
				want.SpillWebs = nil
				for i, v := range d.Spilled {
					want.Spilled = append(want.Spilled, rename(v))
					w := d.SpillWebs[i]
					w.Reg = rename(w.Reg)
					want.SpillWebs = append(want.SpillWebs, w)
				}
				s := sres[name]
				if !slices.Equal(s.Spilled, want.Spilled) || !slices.Equal(s.SpillWebs, want.SpillWebs) ||
					s.Iterations != want.Iterations || !slices.Equal(s.UsedCalleeSaved, want.UsedCalleeSaved) {
					t.Fatalf("seed %d %s: sparse result %+v, want %+v", seed, name, *s, want)
				}
				spills += len(d.Spilled)
			}
		}
	}
	if spills == 0 {
		t.Fatal("corpus never spilled; the spill-name mapping went untested")
	}
}

// TestSparseNumberingBoundedMemory: naming v1000000 costs one node, not
// a million-row adjacency matrix.
func TestSparseNumberingBoundedMemory(t *testing.T) {
	p, err := irtext.Parse("main main\n\nfunc main(v0) {\nentry:\n\tv1000000 = const 7\n\tret v1000000\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := regalloc.AllocateProgram(p, m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("allocating a one-register function named v1000000 took %d bytes, want < 1 MiB", got)
	}
}

// TestTooLarge: a function with more than MaxNodes virtual registers
// is rejected with ErrTooLarge before any matrix is built.
func TestTooLarge(t *testing.T) {
	bu := ir.NewBuilder("wide", 0)
	bu.Block("entry")
	var last ir.Reg
	for range regalloc.MaxNodes + 1 {
		last = bu.Const(1)
	}
	bu.Ret(last)
	m, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = regalloc.Allocate(bu.Finish(), m)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, regalloc.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting the function took %d bytes, want < 1 MiB", got)
	}
}
