package vm_test

// Differential parity harness: the register-transfer regcode engine
// (the default) and the tree-walking reference interpreter must agree
// exactly — return value, every Stats counter
// including the per-function call map, the per-edge execution counts,
// and error messages — on every checked-in testdata program and on
// hundreds of generated programs, raw and after every placement
// strategy, including step-limit halts.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// runEngine executes prog on one engine and returns everything
// observable about the run.
type runOutcome struct {
	val   int64
	err   string
	stats vm.Stats
	edges map[*ir.Edge]int64
}

func runEngine(prog *ir.Program, e vm.Engine, cfg vm.Config, args []int64) runOutcome {
	cfg.Engine = e
	m := vm.New(prog, cfg)
	val, err := m.Run(args...)
	out := runOutcome{val: val, stats: m.Stats.Snapshot(), edges: m.EdgeCount}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func assertParity(t *testing.T, label string, prog *ir.Program, cfg vm.Config, args []int64) {
	t.Helper()
	tr := runEngine(prog, vm.EngineTree, cfg, args)
	got := runEngine(prog, vm.EngineRegcode, cfg, args)
	if got.err != tr.err {
		t.Fatalf("%s: error mismatch:\n  regcode: %q\n  tree   : %q", label, got.err, tr.err)
	}
	if got.err == "" && got.val != tr.val {
		t.Fatalf("%s: value mismatch: regcode %d, tree %d", label, got.val, tr.val)
	}
	if !reflect.DeepEqual(got.stats, tr.stats) {
		t.Fatalf("%s: stats mismatch:\n  regcode: %+v\n  tree   : %+v", label, got.stats, tr.stats)
	}
	if cfg.CollectEdges && !reflect.DeepEqual(got.edges, tr.edges) {
		t.Fatalf("%s: edge count mismatch:\n  regcode: %v\n  tree   : %v", label, got.edges, tr.edges)
	}
}

// checkProgram runs the full parity battery on one program: the raw
// program with edge collection, step-limit halts at several budgets,
// and — after profiling and register allocation — every placement
// strategy's placed clone under convention enforcement.
func checkProgram(t *testing.T, label string, prog *ir.Program, args []int64) {
	t.Helper()
	const maxSteps = 1 << 22

	raw := prog.Clone()
	assertParity(t, label+"/raw", raw, vm.Config{CollectEdges: true, MaxSteps: maxSteps}, args)
	for _, lim := range []int64{1, 13, 257} {
		assertParity(t, label+"/halt", prog.Clone(), vm.Config{CollectEdges: true, MaxSteps: lim}, args)
	}

	base := prog.Clone()
	if _, err := profile.CollectWithConfig(base, vm.Config{MaxSteps: maxSteps}, args...); err != nil {
		// Programs that fail to profile (e.g. nonterminating under the
		// cap) already exercised the halt parity above.
		return
	}
	mach := machine.PARISC()
	if _, err := regalloc.AllocateProgramParallel(base, mach, 1); err != nil {
		t.Fatalf("%s: alloc: %v", label, err)
	}
	for _, s := range strategy.All {
		clone := base.Clone()
		if err := strategy.PlaceProgram(clone, s, 1); err != nil {
			t.Fatalf("%s: place %v: %v", label, s, err)
		}
		assertParity(t, label+"/"+s.String(), clone,
			vm.Config{Machine: mach, CollectEdges: true, MaxSteps: maxSteps}, args)
	}
}

func TestEngineParityTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irtext.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var args []int64
		if f := prog.Func(prog.Main); f != nil && len(f.Params) > 0 {
			args = make([]int64, len(f.Params))
			for i := range args {
				args[i] = 40
			}
		}
		checkProgram(t, filepath.Base(path), prog, args)
	}
}

func TestEngineParityGenerated(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := irgen.Default()
		if seed%2 == 1 {
			cfg = irgen.Small()
		}
		prog := irgen.Generate(uint64(seed), cfg)
		checkProgram(t, "seed"+strconv.Itoa(seed), prog, []int64{int64(seed % 17)})
	}
}

// TestEngineParityErrorPaths pins the engines to identical errors on
// malformed programs the compiler turns into traps.
func TestEngineParityErrorPaths(t *testing.T) {
	// Undefined callee on an executed path.
	undef := ir.NewProgram()
	bu := ir.NewBuilder("main", 0)
	bu.Block("entry")
	bu.Call(ir.NoReg, "ghost")
	bu.Ret(ir.NoReg)
	undef.Add(bu.Finish())
	assertParity(t, "undefined-callee", undef, vm.Config{}, nil)

	// Undefined callee on a dead path must not error in either engine.
	dead := ir.NewProgram()
	db := ir.NewBuilder("main", 0)
	entry := db.Block("entry")
	deadB := db.F.NewBlock("dead")
	exit := db.F.NewBlock("exit")
	db.SetCurrent(entry)
	c := db.Const(0)
	db.Br(c, deadB, exit, 0, 1)
	db.SetCurrent(deadB)
	db.Call(ir.NoReg, "ghost")
	db.Jmp(exit, 0)
	db.SetCurrent(exit)
	db.Ret(ir.NoReg)
	dead.Add(db.Finish())
	assertParity(t, "dead-undefined-callee", dead, vm.Config{CollectEdges: true}, nil)

	// Wrong arity at the top-level call.
	assertParity(t, "bad-arity", dead, vm.Config{}, []int64{1, 2})

	// Out-of-bounds heap access.
	oob := ir.NewProgram()
	ob := ir.NewBuilder("main", 0)
	ob.Block("entry")
	addr := ob.Const(-7)
	ob.Load(addr, 0)
	ob.Ret(ir.NoReg)
	oob.Add(ob.Finish())
	assertParity(t, "oob-load", oob, vm.Config{}, nil)

	// Infinite recursion: call depth limit.
	rec := ir.NewProgram()
	rb := ir.NewBuilder("main", 0)
	rb.Block("entry")
	rb.Call(ir.NoReg, "main")
	rb.Ret(ir.NoReg)
	rec.Add(rb.Finish())
	assertParity(t, "call-depth", rec, vm.Config{}, nil)

	// Missing main.
	ghost := ir.NewProgram()
	ghost.Main = "ghost"
	assertParity(t, "missing-main", ghost, vm.Config{}, nil)

	// Block without a terminator, including the exact step-budget
	// boundary: falling off the end must beat the step limit there,
	// because the tree engine raises it without consuming a step.
	fell := ir.NewProgram()
	fb := ir.NewBuilder("main", 0)
	fb.Block("entry")
	fb.Const(1)
	fb.Const(2)
	fell.Add(fb.F)
	for _, lim := range []int64{1, 2, 3} {
		assertParity(t, "fell-off-end", fell, vm.Config{MaxSteps: lim}, nil)
	}
}

// TestStepLimitError pins the contextual step-limit error: it must
// wrap vm.ErrStepLimit and name the function and block where
// execution stopped, identically in both engines.
func TestStepLimitError(t *testing.T) {
	bu := ir.NewBuilder("spin", 0)
	loop := bu.Block("loop")
	bu.Jmp(loop, 0)
	p := ir.NewProgram()
	p.Add(bu.F)
	bu.F.RenumberBlocks()
	bu.F.ClassifyEdges()

	for _, e := range vm.Engines {
		_, err := vm.New(p, vm.Config{MaxSteps: 10, Engine: e}).Run()
		if err == nil {
			t.Fatalf("%v: expected step limit error", e)
		}
		if !strings.Contains(err.Error(), "spin") || !strings.Contains(err.Error(), "loop") {
			t.Errorf("%v: step limit error lacks context: %v", e, err)
		}
		if !errors.Is(err, vm.ErrStepLimit) {
			t.Errorf("%v: error does not wrap vm.ErrStepLimit: %v", e, err)
		}
	}
}
