package regalloc_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// BenchmarkAllocate times the allocator alone over a fixed corpus of
// irgen Default and Crossover programs, once under the paper's uniform
// heuristic and once machine-priced on the deep-pipeline preset. Each
// iteration allocates fresh clones; cloning is outside the timer.
func BenchmarkAllocate(b *testing.B) {
	var corpus []*ir.Program
	for seed := uint64(0); seed < 8; seed++ {
		corpus = append(corpus,
			irgen.Generate(seed, irgen.Default()),
			irgen.Generate(seed, irgen.Crossover()))
	}
	modes := []struct {
		name   string
		preset string
		opts   regalloc.Options
	}{
		{"uniform", "classic", regalloc.Options{}},
		{"deep-pipeline-priced", "deep-pipeline", regalloc.Options{MachineCosts: true}},
	}
	for _, mode := range modes {
		m, err := machine.Preset(mode.preset)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			progs := make([]*ir.Program, len(corpus))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, p := range corpus {
					progs[j] = p.Clone()
				}
				b.StartTimer()
				for _, p := range progs {
					if _, err := regalloc.AllocateProgramOpts(p, m, 1, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
