package bench

import (
	"testing"

	"repro/internal/strategy"
)

// TestGeneratedSuite: irgen scenario families run through the full
// measurement pipeline like any SPEC stand-in, with the paper's
// ordering claims intact.
func TestGeneratedSuite(t *testing.T) {
	entries := GeneratedSuite(5, 3)
	results, err := RunEntries(entries, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Name != entries[i].Name {
			t.Errorf("result %d named %q, want %q", i, r.Name, entries[i].Name)
		}
		if r.Overhead[strategy.HierarchicalJump] > r.Overhead[strategy.EntryExit] {
			t.Errorf("%s: Optimized overhead %d > Baseline %d", r.Name, r.Overhead[strategy.HierarchicalJump], r.Overhead[strategy.EntryExit])
		}
		if r.Overhead[strategy.HierarchicalJump] > r.Overhead[strategy.Shrinkwrap] {
			t.Errorf("%s: Optimized overhead %d > Shrinkwrap %d", r.Name, r.Overhead[strategy.HierarchicalJump], r.Overhead[strategy.Shrinkwrap])
		}
	}
}

// TestGeneratedSuiteDeterministic: the same seeds measure identically
// across runs and parallelism levels.
func TestGeneratedSuiteDeterministic(t *testing.T) {
	a, err := RunEntries(GeneratedSuite(9, 2), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEntries(GeneratedSuite(9, 2), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Overhead != b[i].Overhead || a[i].ReturnValue != b[i].ReturnValue {
			t.Errorf("%s: serial and sharded runs disagree: %v/%d vs %v/%d",
				a[i].Name, a[i].Overhead, a[i].ReturnValue, b[i].Overhead, b[i].ReturnValue)
		}
	}
}
