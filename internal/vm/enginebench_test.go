package vm_test

// Engine throughput benchmarks: the same placed SPEC stand-in program
// executed by both engines under the measurement configuration
// (convention checking on, edge collection off — exactly what
// bench.RunEntry measures). CI runs these with -benchtime=1x as a
// smoke test; EXPERIMENTS.md records full runs.

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// placedBench builds one profiled, allocated, hierarchically placed
// SPEC stand-in program — the exact artifact the evaluation measures.
func placedBench(b *testing.B, name string) *workloadProgram {
	b.Helper()
	for _, p := range workload.SPECInt2000() {
		if p.Name != name {
			continue
		}
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, 0); err != nil {
			b.Fatal(err)
		}
		mach := machine.PARISC()
		if _, err := regalloc.AllocateProgramParallel(prog, mach, 1); err != nil {
			b.Fatal(err)
		}
		if err := strategy.PlaceProgram(prog, strategy.HierarchicalJump, 1); err != nil {
			b.Fatal(err)
		}
		return &workloadProgram{prog: prog, mach: mach}
	}
	b.Fatalf("no SPEC stand-in named %q", name)
	return nil
}

type workloadProgram struct {
	prog *ir.Program
	mach *machine.Desc
}

func benchEngine(b *testing.B, e vm.Engine) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{Machine: w.mach, Engine: e})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		instrs = m.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkEngineRegcode(b *testing.B) { benchEngine(b, vm.EngineRegcode) }

func BenchmarkEngineTree(b *testing.B) { benchEngine(b, vm.EngineTree) }

// BenchmarkEngineRegcodeProfiling measures the profiling
// configuration (edge collection on), the other hot path.
func BenchmarkEngineRegcodeProfiling(b *testing.B) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{CollectEdges: true, Engine: vm.EngineRegcode})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTreeProfiling(b *testing.B) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{CollectEdges: true, Engine: vm.EngineTree})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
