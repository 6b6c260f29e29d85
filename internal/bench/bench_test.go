package bench

import (
	"testing"

	"repro/internal/strategy"
	"repro/internal/workload"
)

func TestRunAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	results, err := RunEntries(specEntries(workload.SPECInt2000()), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 11 {
		t.Fatalf("results = %d, want 11", len(results))
	}
	for _, r := range results {
		t.Logf("%-8s opt=%8d (%6.1f%%)  sw=%8d (%6.1f%%)  base=%8d  procs=%d instrs=%d spilled=%d",
			r.Name, r.Overhead[strategy.HierarchicalJump], r.Ratio(strategy.HierarchicalJump),
			r.Overhead[strategy.Shrinkwrap], r.Ratio(strategy.Shrinkwrap),
			r.Overhead[strategy.EntryExit], r.Procedures, r.Instrs, r.SpilledVregs)
		// Paper's guarantee: optimized never exceeds either technique.
		if r.Overhead[strategy.HierarchicalJump] > r.Overhead[strategy.EntryExit] {
			t.Errorf("%s: optimized %d > baseline %d", r.Name, r.Overhead[strategy.HierarchicalJump], r.Overhead[strategy.EntryExit])
		}
		if r.Overhead[strategy.HierarchicalJump] > r.Overhead[strategy.Shrinkwrap] {
			t.Errorf("%s: optimized %d > shrinkwrap %d", r.Name, r.Overhead[strategy.HierarchicalJump], r.Overhead[strategy.Shrinkwrap])
		}
	}
}

// specEntries wraps SPEC stand-in descriptions as harness entries.
func specEntries(suite []workload.BenchParams) []Entry {
	entries := make([]Entry, len(suite))
	for i, p := range suite {
		entries[i] = EntryFor(p)
	}
	return entries
}
