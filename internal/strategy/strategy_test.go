package strategy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// buildDemo constructs a profiled, allocated two-function program with
// a cold call so every strategy has real work to do.
func buildDemo(t *testing.T) *ir.Program {
	t.Helper()
	prog := ir.NewProgram()

	leaf := ir.NewBuilder("leaf", 1)
	leaf.Block("entry")
	two := leaf.Const(2)
	r := leaf.Bin(ir.OpMul, leaf.F.Params[0], two)
	leaf.Ret(r)
	prog.Add(leaf.Finish())

	bu := ir.NewBuilder("work", 1)
	bu.Block("entry")
	acc := bu.F.NewVirt()
	bu.Mov(acc, bu.F.Params[0])
	mask := bu.Const(240)
	c := bu.Bin(ir.OpAnd, acc, mask)
	cold := bu.F.NewBlock("cold")
	join := bu.F.NewBlock("join")
	bu.Br(c, join, cold, 0, 0)
	bu.SetCurrent(cold)
	one := bu.Const(1)
	live := bu.Bin(ir.OpAdd, acc, one)
	res := bu.F.NewVirt()
	bu.Call(res, "leaf", acc)
	bu.BinInto(ir.OpAdd, acc, res, live)
	bu.Jmp(join, 0)
	bu.SetCurrent(join)
	bu.Ret(acc)
	prog.Add(bu.Finish())

	main := ir.NewBuilder("main", 1)
	main.Block("entry")
	total := main.F.NewVirt()
	i := main.F.NewVirt()
	main.ConstInto(total, 0)
	main.ConstInto(i, 0)
	loop := main.F.NewBlock("loop")
	exit := main.F.NewBlock("exit")
	main.Jmp(loop, 0)
	main.SetCurrent(loop)
	r2 := main.F.NewVirt()
	main.Call(r2, "work", i)
	main.BinInto(ir.OpAdd, total, total, r2)
	one2 := main.Const(1)
	main.BinInto(ir.OpAdd, i, i, one2)
	c2 := main.Bin(ir.OpCmpLT, i, main.F.Params[0])
	main.Br(c2, loop, exit, 0, 0)
	main.SetCurrent(exit)
	main.Ret(total)
	prog.Add(main.Finish())
	prog.Main = "main"

	if err := ir.VerifyProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Collect(prog, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.AllocateProgram(prog, machine.PARISC()); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestPlaceProgramAllStrategies(t *testing.T) {
	base := buildDemo(t)
	var ref int64
	for i, s := range All {
		clone := base.Clone()
		if err := PlaceProgram(clone, s, nil, 1, nil); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := ir.VerifyProgram(clone); err != nil {
			t.Fatalf("%v: placed program invalid: %v", s, err)
		}
		m := vm.New(clone, vm.Config{Machine: machine.PARISC()})
		v, err := m.Run(100)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			ref = v
		} else if v != ref {
			t.Errorf("%v computes %d, want %d", s, v, ref)
		}
	}
}

func TestComputeUnknownStrategy(t *testing.T) {
	base := buildDemo(t)
	if _, err := Compute(base.Func("work"), Strategy(99), nil, nil); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestComputeWithModelOverride(t *testing.T) {
	base := buildDemo(t)
	f := base.Func("work")
	if len(f.UsedCalleeSaved) == 0 {
		t.Skip("work does not use callee-saved registers under this allocation")
	}
	real, err := Compute(f, HierarchicalExec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A model that prefers hot locations must not beat the real model
	// under the real model's costing.
	broken, err := ComputeWithModel(f, HierarchicalExec, nil, hotModel{})
	if err != nil {
		t.Fatal(err)
	}
	rc := core.TotalCost(core.ExecCountModel{}, real)
	bc := core.TotalCost(core.ExecCountModel{}, broken)
	if rc > bc {
		t.Errorf("real-model placement costs %d, broken-model %d; optimal placement beaten", rc, bc)
	}
}

// hotModel inverts the execution count model: cold locations look
// expensive, hot locations look free.
type hotModel struct{}

func (hotModel) LocationCost(k core.CostKind, l core.Location, seed bool) int64 {
	return 1 << 20 / (1 + l.Weight())
}
func (hotModel) Name() string { return "broken-hot" }

// TestModelFor: the machine-parameterized model selection — nil is
// the paper's unit models, a machine description yields its
// MachineModel with the right jump-charging flavor, and non-
// hierarchical strategies consume no model on any machine.
func TestModelFor(t *testing.T) {
	d, err := machine.Preset("deep-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	unit := map[Strategy]core.CostModel{HierarchicalExec: core.ExecCountModel{}, HierarchicalJump: core.JumpEdgeModel{}}
	for _, s := range All {
		if got, want := model(s, nil), unit[s]; got != want {
			t.Errorf("model(%s, nil) = %v, want %v", s, got, want)
		}
		if !s.IsHierarchical() {
			if model(s, d) != nil {
				t.Errorf("model(%s, machine) should be nil", s)
			}
			continue
		}
		m, ok := model(s, d).(core.MachineModel)
		if !ok || m.Desc != d {
			t.Fatalf("model(%s) = %v, want MachineModel on %s", s, model(s, d), d.Name)
		}
		if m.ChargeJumps != (s == HierarchicalJump) {
			t.Errorf("%s: ChargeJumps = %v", s, m.ChargeJumps)
		}
	}
}

// TestPlaceProgramForClassicIdentity: placing on the classic preset is
// byte-identical to placing on the default (nil) machine — the
// machine threading changes nothing on the paper's machine.
func TestPlaceProgramForClassicIdentity(t *testing.T) {
	classic, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All {
		a := buildDemo(t)
		b := a.Clone()
		if err := PlaceProgram(a, s, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := PlaceProgram(b, s, classic, 1, nil); err != nil {
			t.Fatal(err)
		}
		va := vm.New(a, vm.Config{Machine: machine.PARISC()})
		vb := vm.New(b, vm.Config{Machine: classic})
		ra, err := va.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := vb.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb || va.Stats.Overhead() != vb.Stats.Overhead() {
			t.Errorf("%s: classic placement diverges from default (val %d/%d, overhead %d/%d)",
				s, ra, rb, va.Stats.Overhead(), vb.Stats.Overhead())
		}
	}
}
