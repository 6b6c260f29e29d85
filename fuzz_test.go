package spillopt

// Native Go fuzz targets. FuzzParse hammers the textual IR frontend
// with arbitrary bytes; FuzzPlacement drives seed-chosen generated
// programs through the full differential oracle; FuzzEngineParity
// cross-checks the regcode engine against the tree interpreter. CI
// runs each with a short budget (-fuzztime=30s); locally, crank them
// up with e.g.
//
//	go test -run=^$ -fuzz=^FuzzPlacement$ -fuzztime=5m .
//
// Minimized corpus seeds live under testdata/fuzz/<target>/.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
)

// FuzzParse: irtext.Parse must never panic, and any program it
// accepts must print to a parse-print fixpoint (Print(Parse(s)) is
// stable and reparses to the same text).
func FuzzParse(f *testing.F) {
	for _, name := range []string{"gcd.ir", "collatz.ir"} {
		if b, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(string(b))
		}
	}
	f.Add(demoSrc)
	f.Add("main m\n\nfunc m(v0) {\nentry:\n\tret v0\n}")
	f.Add("func f() {\ne:\n\tv0 = const 1\n\tbr v0, a, b ; 2 3\na:\n\tjmp b ; 1\nb:\n\tret\n}")
	f.Add("func s(r3) entry=7 {\ne:\n\tsave 0, r3 !sr\n\tv0 = restore 0 !sr\n\tjmp x ; 0 !jb\nx:\n\tret v0\n}")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := irtext.Parse(src)
		if err != nil {
			return
		}
		s1 := irtext.Print(p)
		p2, err := irtext.Parse(s1)
		if err != nil {
			t.Fatalf("accepted program does not reparse: %v\n%s", err, s1)
		}
		if s2 := irtext.Print(p2); s2 != s1 {
			t.Fatalf("print not a fixpoint:\n-- first --\n%s\n-- second --\n%s", s1, s2)
		}
	})
}

// FuzzPlacement: for any seed, the generated program must pass the
// full differential oracle — identical results across all five
// strategies from one allocation, structural validity and round-trip
// after placement, exec-model optimality, and the jump-model
// measurement bounds.
func FuzzPlacement(f *testing.F) {
	for _, seed := range []uint64{0, 1, 42, 1 << 33, 987654321} {
		f.Add(seed, int64(3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arg int64) {
		prog := irgen.Generate(seed, irgen.Small())
		r := irgen.Check(prog, irgen.Options{
			Args:     []int64{arg % 1024},
			MaxSteps: 1 << 22,
		})
		for _, v := range r.Violations {
			t.Errorf("seed %d arg %d: %v", seed, arg, v)
		}
		if t.Failed() {
			t.Logf("program:\n%s", irtext.Print(prog))
		}
	})
}

// FuzzEngineParity: for any seed, argument, and step budget, the
// regcode engine must agree with the tree interpreter exactly —
// result value, error text, every statistics counter, and the edge
// profile — on the generated program raw (where an arbitrary budget
// forces mid-quantum step-limit halts), hierarchically placed under
// callee-saved convention checking, and through the full tiered
// pipeline (an arbitrary quantum forces tier boundaries at arbitrary
// points, and the recompiled tier-1 program must agree byte for byte
// and observation for observation).
func FuzzEngineParity(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 33} {
		f.Add(seed, int64(3), int64(257))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arg, budget int64) {
		budget = budget&(1<<22-1) + 1
		prog := irgen.Generate(seed, irgen.Small())
		for _, m := range irgen.EngineParitySweep(prog, []int64{arg & 1023}, []int64{budget}) {
			t.Errorf("seed %d arg %d: %s", seed, arg, m)
		}
		quantum := budget/2 + 1
		for _, m := range irgen.TierParitySweep(prog, []int64{arg & 1023}, quantum, budget) {
			t.Errorf("seed %d arg %d: %s", seed, arg, m)
		}
		if t.Failed() {
			t.Logf("program:\n%s", irtext.Print(prog))
		}
	})
}
