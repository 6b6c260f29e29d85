// Command spillfuzz sweeps seeds through the random program generator
// and the differential strategy-equivalence oracle (internal/irgen):
// every generated program runs all five placement strategies from one
// shared register allocation, and any broken cross-strategy invariant
// is a bug in the pipeline. Failing programs are minimized to small
// .ir reproducers.
//
// Usage:
//
//	spillfuzz -n 1000 -j 8            # sweep 1000 seeds over 8 workers
//	spillfuzz -n 100 -seed 4000      # seeds 4000..4099
//	spillfuzz -small                  # the tiny fuzzing configuration
//	spillfuzz -out dir                # write minimized reproducers here
//	spillfuzz -emit 6 -out testdata   # emit minimized oracle-clean
//	                                  # sample programs instead
//	spillfuzz -parity                 # regcode-vs-tree engine parity
//	                                  # sweep instead of the strategy
//	                                  # oracle
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
	"repro/internal/strategy"
)

func main() {
	n := flag.Int("n", 1000, "number of seeds to sweep")
	jobs := flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	base := flag.Uint64("seed", 0, "first seed")
	small := flag.Bool("small", false, "use the small (fuzzing) generator configuration")
	out := flag.String("out", "", "directory for minimized .ir reproducers (default: none written)")
	keep := flag.Int("keep", 5, "minimize and write at most this many failures")
	emit := flag.Int("emit", 0, "instead of hunting bugs: emit this many minimized oracle-clean sample programs to -out")
	verbose := flag.Bool("v", false, "log every failing seed as it is found")
	parity := flag.Bool("parity", false, "instead of the strategy oracle: cross-check the regcode VM engine against the tree interpreter on every seed (raw, step-limited, and placed programs)")
	flag.Parse()

	cfg := irgen.Default()
	if *small {
		cfg = irgen.Small()
	}

	if *parity {
		paritySweep(*n, *jobs, *base, cfg, *verbose)
		return
	}

	if *emit > 0 {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "spillfuzz: -emit requires -out")
			os.Exit(2)
		}
		if err := emitSamples(*emit, *base, cfg, *out); err != nil {
			fmt.Fprintf(os.Stderr, "spillfuzz: %v\n", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	type failure struct {
		seed   uint64
		report *irgen.Report
	}
	var mu sync.Mutex
	var failures []failure
	var checked, interesting int
	var dynInstrs int64

	// One analysis cache spans the whole sweep: every seed's five
	// strategies read it, and its counters aggregated over the sweep
	// prove each function's analyses were built once, not per strategy.
	cache := analysis.NewCache()
	_ = par.Do(*n, *jobs, func(i int) error {
		seed := *base + uint64(i)
		prog := irgen.Generate(seed, cfg)
		// Seeds already fan out across the pool; a nested GOMAXPROCS
		// allocation pool per check would only oversubscribe.
		r := irgen.Check(prog, irgen.Options{Args: []int64{int64(seed % 17)}, Parallelism: 1, Cache: cache})
		mu.Lock()
		defer mu.Unlock()
		checked++
		dynInstrs += r.Instrs
		if r.CalleeSavedFuncs > 0 {
			interesting++
		}
		if r.Failed() {
			failures = append(failures, failure{seed, r})
			if *verbose {
				fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, r.Violations[0])
			}
		}
		return nil
	})

	sort.Slice(failures, func(i, j int) bool { return failures[i].seed < failures[j].seed })
	fmt.Printf("spillfuzz: %d seeds in %v, %d with callee-saved placement, %d dynamic instrs, %d failures\n",
		checked, time.Since(start).Round(time.Millisecond), interesting, dynInstrs, len(failures))
	hits, misses := cache.Stats()
	c := cache.Counts()
	fmt.Printf("spillfuzz: analysis cache %d hits / %d misses; builds: liveness=%d dom=%d loops=%d pst=%d seed=%d\n",
		hits, misses, c.Liveness, c.Dom, c.Loops, c.PST, c.Seed)

	for i, f := range failures {
		fmt.Printf("seed %d:\n", f.seed)
		for _, v := range f.report.Violations {
			fmt.Printf("  %v\n", v)
		}
		if *out == "" || i >= *keep {
			continue
		}
		path, err := minimize(f.seed, cfg, f.report, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spillfuzz: minimize seed %d: %v\n", f.seed, err)
			continue
		}
		fmt.Printf("  reproducer: %s\n", path)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// paritySweep cross-checks the regcode engine against the tree
// interpreter on every seed: the raw program under several step
// budgets (small ones force mid-quantum halts) plus the
// hierarchically placed program under convention checking. Any observable divergence is a bug in
// one of the engines; the process exits 1 on the first-failing run.
func paritySweep(n, jobs int, base uint64, cfg irgen.Config, verbose bool) {
	start := time.Now()
	budgets := []int64{1, 13, 257, 1 << 22}
	type failure struct {
		seed       uint64
		mismatches []string
	}
	var mu sync.Mutex
	var failures []failure
	checked := 0
	_ = par.Do(n, jobs, func(i int) error {
		seed := base + uint64(i)
		prog := irgen.Generate(seed, cfg)
		ms := irgen.EngineParitySweep(prog, []int64{int64(seed % 17)}, budgets)
		mu.Lock()
		defer mu.Unlock()
		checked++
		if len(ms) > 0 {
			failures = append(failures, failure{seed, ms})
			if verbose {
				fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, ms[0])
			}
		}
		return nil
	})
	sort.Slice(failures, func(i, j int) bool { return failures[i].seed < failures[j].seed })
	fmt.Printf("spillfuzz: regcode-vs-tree parity on %d seeds in %v, %d failures\n",
		checked, time.Since(start).Round(time.Millisecond), len(failures))
	for _, f := range failures {
		fmt.Printf("seed %d:\n", f.seed)
		for _, m := range f.mismatches {
			fmt.Printf("  %s\n", m)
		}
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// minimize shrinks the failing seed's program while the first violated
// invariant keeps failing, and writes the result as an .ir file.
func minimize(seed uint64, cfg irgen.Config, orig *irgen.Report, dir string) (string, error) {
	inv := orig.Violations[0].Invariant
	// Reduce under the sweep's own step budget (the Check default):
	// a lower cap could make the unreduced program fail differently
	// than it did in the sweep, and the "same invariant" predicate
	// would then chase the wrong bug.
	opts := irgen.Options{Args: []int64{int64(seed % 17)}, Parallelism: 1}
	still := func(p *ir.Program) bool {
		for _, v := range irgen.Check(p, opts).Violations {
			if v.Invariant == inv {
				return true
			}
		}
		return false
	}
	red := irgen.Reduce(irgen.Generate(seed, cfg), still, 4)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("fuzz-seed%d.ir", seed))
	header := fmt.Sprintf("# spillfuzz reproducer: seed %d, invariant %q\n# args: %d\n",
		seed, inv, seed%17)
	return path, os.WriteFile(path, []byte(header+irtext.Print(red)), 0o644)
}

// emitSamples generates oracle-clean programs, minimizes them while
// they keep exercising callee-saved placement and staying clean, and
// writes them out — the source of the checked-in testdata programs.
func emitSamples(count int, base uint64, cfg irgen.Config, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := irgen.Options{Args: []int64{40}, MaxSteps: 1 << 22}
	emitted := 0
	for seed := base; emitted < count && seed < base+10000; seed++ {
		prog := irgen.Generate(seed, cfg)
		// Keep programs where the hierarchical placement strictly beats
		// entry/exit: reduction then cannot strip the cold-guarded
		// structure that makes the placement problem interesting.
		keep := func(p *ir.Program) bool {
			rr := irgen.Check(p, opts)
			return !rr.Failed() && rr.CalleeSavedFuncs >= 2 &&
				rr.Overhead[strategy.HierarchicalJump] < rr.Overhead[strategy.EntryExit]
		}
		if !keep(prog) {
			continue
		}
		red := irgen.Reduce(prog, keep, 3)
		path := filepath.Join(dir, fmt.Sprintf("gen_seed%d.ir", seed))
		header := fmt.Sprintf("# irgen sample: seed %d, minimized while keeping >=2 procedures with\n"+
			"# callee-saved placement and a strict hierarchical-jump win over entry/exit.\n# oracle args: 40\n", seed)
		if err := os.WriteFile(path, []byte(header+irtext.Print(red)), 0o644); err != nil {
			return err
		}
		fmt.Printf("emitted %s\n", path)
		emitted++
	}
	if emitted < count {
		return fmt.Errorf("only %d/%d samples found in seed range", emitted, count)
	}
	return nil
}
