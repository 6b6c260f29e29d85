// Package bench runs the paper's evaluation end to end: generate a
// benchmark program, profile it by execution, register-allocate it
// once, apply each callee-saved spill placement strategy to identical
// clones, execute each clone under convention checking, and report the
// measured dynamic spill overhead (Figure 5, Table 1) and incremental
// placement time (Table 2).
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Strategy names a callee-saved spill placement technique.
type Strategy int

const (
	// Baseline saves at procedure entry and restores at each exit.
	Baseline Strategy = iota
	// Shrinkwrap is Chow's original technique.
	Shrinkwrap
	// Optimized is the paper's hierarchical algorithm with the
	// jump-edge cost model (the configuration evaluated in the paper).
	Optimized
	// OptimizedExec is the hierarchical algorithm under the execution
	// count cost model, realized with jump blocks. The paper could not
	// evaluate this configuration ("spill instructions placed on jump
	// edges have no physical memory allocated to them" in GCC); this
	// reproduction can, so it is included as an ablation of the cost
	// model choice.
	OptimizedExec
	numStrategies
)

// Strategies lists all strategies in display order.
var Strategies = []Strategy{Baseline, Shrinkwrap, Optimized, OptimizedExec}

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Shrinkwrap:
		return "Shrinkwrap"
	case Optimized:
		return "Optimized"
	case OptimizedExec:
		return "OptimizedExec"
	}
	return "?"
}

// technique maps the figure-label enum to the shared placement
// dispatch in internal/strategy.
func (s Strategy) technique() strategy.Strategy {
	switch s {
	case Shrinkwrap:
		return strategy.Shrinkwrap
	case Optimized:
		return strategy.HierarchicalJump
	case OptimizedExec:
		return strategy.HierarchicalExec
	}
	return strategy.EntryExit
}

// Result holds one benchmark's measurements.
type Result struct {
	Name string
	// Overhead is the measured dynamic spill overhead per strategy:
	// every spill load/store, callee-saved save/restore, and
	// jump-block jump executed.
	Overhead [numStrategies]int64
	// PlacementTime is the incremental compile time each strategy
	// added (Baseline's is the reference and is ~0).
	PlacementTime [numStrategies]time.Duration
	// ReturnValue is the program result, identical across strategies.
	ReturnValue int64
	// Stats holds the full VM execution counters per strategy
	// (deep-copied, so concurrent runs never share a Calls map).
	Stats [numStrategies]vm.Stats
	// Procedures and Instrs describe the allocated program.
	Procedures int
	Instrs     int
	// SpilledVregs counts allocator-spilled virtual registers.
	SpilledVregs int
	// ReplaceCold, ReplaceShared, and ReplaceIncremental time
	// re-placing the paper's configuration after its own placement edit
	// (summed over all functions): cold recomputes every analysis from
	// scratch, shared reads a fully warmed cache, and incremental
	// patches the warmed cache through core.Delta + ApplyDelta and
	// recomputes only the derived seed. Table 2's re-placement columns.
	ReplaceCold, ReplaceShared, ReplaceIncremental time.Duration
	// ReplaceRebuilds counts functions whose incremental re-placement
	// fell back to a full analysis rebuild; 0 in a healthy tree.
	ReplaceRebuilds int
}

// Ratio returns overhead(s) / overhead(Baseline) as a percentage.
func (r *Result) Ratio(s Strategy) float64 {
	if r.Overhead[Baseline] == 0 {
		return 100
	}
	return 100 * float64(r.Overhead[s]) / float64(r.Overhead[Baseline])
}

// Options tweaks the pipeline.
type Options struct {
	// Align runs the jump-alignment layout pass (internal/layout) on
	// every procedure after allocation, before placement — the
	// configuration the paper mentions as making the jump edge cost
	// model more accurate.
	Align bool
	// Parallelism bounds the worker pools of the concurrent stages:
	// benchmark sharding in RunAllWithOptions, the per-strategy VM
	// measurement fan-out, and per-function allocation and placement.
	// Only one level fans out at a time (benchmarks when there are
	// several, strategies/functions otherwise), so pools never
	// multiply. Zero or negative means GOMAXPROCS; 1 forces the fully
	// serial path. All measured counts are deterministic and
	// identical for any value. PlacementTime is wall-clock: placement
	// of one benchmark never runs concurrently with another strategy's
	// placement of the same benchmark, but concurrent benchmarks can
	// still contend — for paper-grade Table 2 timings use 1.
	Parallelism int
	// Unshared disables the shared analysis cache: every strategy
	// rebuilds liveness, dominators, loops, PST, and the shrink-wrap
	// seed from scratch, reproducing the pre-sharing pipeline. Sets and
	// measured counts are identical either way (the identity tests
	// prove it); only PlacementTime changes. Kept as the A/B reference
	// for the analysis-layer speedup (spillbench -unshared).
	Unshared bool
	// Cache, when non-nil, is used as the shared analysis layer instead
	// of a fresh per-entry cache, so a caller running many entries (for
	// example spilltune's per-trial loop) can accumulate the sharing
	// counters across runs in one place. Ignored when Unshared is set.
	Cache *analysis.Cache
	// MachineAlloc prices the allocator's spill choices with the
	// machine's cost surface (regalloc.Options.MachineCosts). In
	// RunSweep it requires a single-machine sweep, because the
	// allocation then depends on the preset; RunCrossover compares it
	// against the uniform allocation preset by preset.
	MachineAlloc bool
}

// Entry is one measurable program: a name for the reports and a
// generator producing a fresh virtual-register program ready for
// profiling. The synthetic SPEC stand-ins and irgen's random scenario
// families both enter the harness this way.
type Entry struct {
	Name string
	Gen  func() *ir.Program
}

// EntryFor wraps a synthetic SPEC benchmark description as an Entry.
func EntryFor(p workload.BenchParams) Entry {
	return Entry{Name: p.Name, Gen: func() *ir.Program { return workload.Generate(p) }}
}

// GeneratedSuite returns n random scenario-family entries from the
// irgen generator, seeds base..base+n-1, so fuzz-grade program shapes
// can join the measured suite next to the SPEC stand-ins.
func GeneratedSuite(base uint64, n int) []Entry {
	if n < 0 {
		n = 0
	}
	out := make([]Entry, n)
	for i := range out {
		seed := base + uint64(i)
		out[i] = Entry{
			Name: "irgen-" + fmt.Sprint(seed),
			Gen:  func() *ir.Program { return irgen.Generate(seed, irgen.Default()) },
		}
	}
	return out
}

// Run executes the full pipeline for one benchmark description,
// serially (the zero-value Options would mean GOMAXPROCS).
func Run(p workload.BenchParams) (*Result, error) {
	return RunWithOptions(p, Options{Parallelism: 1})
}

// RunWithOptions executes the pipeline with tweaks.
func RunWithOptions(p workload.BenchParams, opts Options) (*Result, error) {
	return RunEntry(EntryFor(p), opts)
}

// RunEntry executes the pipeline for one entry: generate, profile,
// allocate once, place every strategy on identical clones, execute
// each clone under convention checking.
func RunEntry(e Entry, opts Options) (*Result, error) {
	prog := e.Gen()
	mach := machine.PARISC()

	// Profile by execution, then check flow conservation.
	if _, err := profile.Collect(prog, 0); err != nil {
		return nil, fmt.Errorf("bench %s: profile: %w", e.Name, err)
	}
	if err := profile.Consistent(prog); err != nil {
		return nil, fmt.Errorf("bench %s: %w", e.Name, err)
	}

	// One register allocation shared by all strategies; functions are
	// independent, so allocation fans out per function.
	allocRes, err := regalloc.AllocateProgramOpts(prog, mach, opts.Parallelism, regalloc.Options{MachineCosts: opts.MachineAlloc})
	if err != nil {
		return nil, fmt.Errorf("bench %s: regalloc: %w", e.Name, err)
	}

	if opts.Align {
		for _, f := range prog.FuncsInOrder() {
			layout.Align(f)
		}
	}

	res := &Result{Name: e.Name, Procedures: len(prog.Funcs)}
	for _, f := range prog.FuncsInOrder() {
		res.Instrs += f.Instrs()
	}
	for _, ar := range allocRes {
		res.SpilledVregs += len(ar.Spilled)
	}

	// Placement is the timed stage (Table 2), so it runs serially
	// across strategies — two strategies' placements of the same
	// benchmark never compete for CPUs and pollute each other's
	// timings. Each strategy's placement may still fan out per
	// function. All strategies compute their sets on the shared
	// allocated program through one analysis cache — liveness,
	// dominators, loops, PST, and the shrink-wrap seed are built once
	// per function, by whichever strategy first needs them — and the
	// sets are then translated onto a per-strategy clone for the
	// mutation. Placement is cheap; the VM runs below dominate.
	clones := make([]*ir.Program, numStrategies)
	var cache *analysis.Cache // nil (no sharing) when opts.Unshared
	if !opts.Unshared {
		if cache = opts.Cache; cache == nil {
			cache = analysis.NewCache()
		}
	}
	funcs := strategy.NeedsPlacement(prog)
	for _, s := range Strategies {
		sets, elapsed, err := computeSets(funcs, s, opts.Parallelism, cache, nil)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %s: %w", e.Name, s, err)
		}
		res.PlacementTime[s] = elapsed
		clone := prog.Clone()
		if err := applySets(clone, funcs, sets, opts.Parallelism); err != nil {
			return nil, fmt.Errorf("bench %s: %s: %w", e.Name, s, err)
		}
		clones[s] = clone
	}

	// Re-placement timing (Table 2's incremental columns) runs on its
	// own clone, serially, after the timed placements above and before
	// the VM fan-out, so it never contends with either.
	coldNs, sharedNs, incNs, rebuilds, _, err := measureReplacement(prog.Clone())
	if err != nil {
		return nil, fmt.Errorf("bench %s: re-placement: %w", e.Name, err)
	}
	res.ReplaceCold = time.Duration(coldNs)
	res.ReplaceShared = time.Duration(sharedNs)
	res.ReplaceIncremental = time.Duration(incNs)
	res.ReplaceRebuilds = rebuilds

	// Every strategy executes on its own clone in its own VM, so the
	// four measurement runs fan out across the pool. Each slot is
	// written by exactly one worker; the cross-strategy return value
	// check runs after the barrier, in strategy order, so failures are
	// reported exactly as the serial loop would report them.
	var vals [numStrategies]int64
	err = par.Do(len(Strategies), opts.Parallelism, func(i int) error {
		s := Strategies[i]
		v := vm.New(clones[s], vm.Config{Machine: mach})
		val, err := v.Run(0)
		if err != nil {
			return fmt.Errorf("bench %s: %s run: %w", e.Name, s, err)
		}
		vals[s] = val
		res.Overhead[s] = v.Stats.Overhead()
		res.Stats[s] = v.Stats.Snapshot()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ReturnValue = vals[Baseline]
	for _, s := range Strategies {
		if vals[s] != res.ReturnValue {
			return nil, fmt.Errorf("bench %s: %s computed %d, want %d", e.Name, s, vals[s], res.ReturnValue)
		}
	}
	return res, nil
}

// computeSets computes and validates one strategy's placement for
// every function in funcs (the shared allocated program), returning
// the per-function sets and the time spent computing them (the
// strategy's incremental compile time, Table 2). Procedures are
// independent, so they fan out across a bounded pool; the returned
// duration is the sum of per-procedure compute times, matching the
// serial accounting. Analyses shared through cache are charged to the
// first strategy that builds them, so the timing column keeps its
// incremental-compile-time meaning under sharing.
func computeSets(funcs []*ir.Func, s Strategy, parallelism int, cache *analysis.Cache, d *machine.Desc) ([][]*core.Set, time.Duration, error) {
	sets := make([][]*core.Set, len(funcs))
	var mu sync.Mutex
	var elapsed time.Duration
	err := par.Do(len(funcs), parallelism, func(i int) error {
		f := funcs[i]
		info := cache.For(f)
		start := time.Now()
		fs, err := strategy.ComputeCachedFor(f, s.technique(), info, d)
		if err != nil {
			return err
		}
		d := time.Since(start)
		mu.Lock()
		elapsed += d
		mu.Unlock()
		if err := core.ValidateSetsLive(f, fs, info.Liveness()); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		sets[i] = fs
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return sets, elapsed, nil
}

// measureReplacement measures the cost of re-placing the paper's
// configuration (HierarchicalJump) after its own placement edit, for
// every function of prog that needs placement. Per function it places
// once untimed through the delta path, then times three re-placements
// of the edited function:
//
//   - incremental: ApplyDelta patches the warmed analyses in place and
//     the compute rebuilds only the derived shrink-wrap seed;
//   - shared: a second compute over the now fully warmed handle (the
//     floor — pure hierarchical traversal);
//   - cold: a compute over a fresh handle, rebuilding liveness,
//     dominators, loops, the PST, and the seed from scratch.
//
// rebuilds counts functions whose incremental pass performed any full
// analysis rebuild (checked via analysis.Counts); a healthy tree
// reports 0. The sums feed Table 2 and the BENCH_analysis.json gate.
func measureReplacement(prog *ir.Program) (coldNs, sharedNs, incNs int64, rebuilds, funcs int, err error) {
	for _, f := range strategy.NeedsPlacement(prog) {
		info := analysis.For(f)
		sets, err := strategy.ComputeCached(f, strategy.HierarchicalJump, info)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		delta, err := core.ApplyWithDelta(f, sets)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		funcs++

		before := info.Counts()
		start := time.Now()
		info.ApplyDelta(delta)
		if _, err := strategy.ComputeCached(f, strategy.HierarchicalJump, info); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: incremental: %w", f.Name, err)
		}
		incNs += time.Since(start).Nanoseconds()
		after := info.Counts()
		if after.Liveness != before.Liveness || after.Dom != before.Dom ||
			after.Loops != before.Loops || after.PST != before.PST || after.SplitDom != before.SplitDom {
			rebuilds++
		}

		start = time.Now()
		if _, err := strategy.ComputeCached(f, strategy.HierarchicalJump, info); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: shared: %w", f.Name, err)
		}
		sharedNs += time.Since(start).Nanoseconds()

		start = time.Now()
		if _, err := strategy.ComputeCached(f, strategy.HierarchicalJump, analysis.For(f)); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: cold: %w", f.Name, err)
		}
		coldNs += time.Since(start).Nanoseconds()
	}
	return coldNs, sharedNs, incNs, rebuilds, funcs, nil
}

// place computes, validates, and applies one strategy's placement to
// every procedure of prog in place, returning the compute time. The
// consistency tests use it to place a single program without the
// per-strategy clone-and-translate dance of RunEntry.
func place(prog *ir.Program, s Strategy, parallelism int) (time.Duration, error) {
	funcs := strategy.NeedsPlacement(prog)
	sets, elapsed, err := computeSets(funcs, s, parallelism, analysis.NewCache(), nil)
	if err != nil {
		return 0, err
	}
	err = par.Do(len(funcs), parallelism, func(i int) error {
		if err := core.Apply(funcs[i], sets[i]); err != nil {
			return fmt.Errorf("%s: %w", funcs[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return elapsed, nil
}

// applySets translates the sets computed on the shared base onto the
// strategy's clone and applies them there.
func applySets(clone *ir.Program, funcs []*ir.Func, sets [][]*core.Set, parallelism int) error {
	return par.Do(len(funcs), parallelism, func(i int) error {
		f := funcs[i]
		cf := clone.Func(f.Name)
		cs, err := core.TranslateSets(sets[i], f, cf)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if err := core.Apply(cf, cs); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		return nil
	})
}

// RunAll runs every benchmark in the suite serially. RunAllWithOptions
// is the sharded version; both produce identical results.
func RunAll(suite []workload.BenchParams) ([]*Result, error) {
	return RunAllWithOptions(suite, Options{Parallelism: 1})
}

// RunAllWithOptions shards the suite across a bounded pool of workers
// (Options.Parallelism; <= 0 means GOMAXPROCS). Workers pull
// benchmarks from a shared queue — so one heavyweight benchmark (gcc)
// does not serialize a whole static shard behind it — and write
// results back by suite position, so the result order and every
// measured count in it are byte-for-byte identical to the serial
// path; only wall-clock time changes. On error the lowest-positioned
// failure is returned, as in the serial loop. When several benchmarks
// run concurrently, each runs its inner stages serially; with a
// single benchmark (or parallelism 1) the inner stages get the pool
// instead.
func RunAllWithOptions(suite []workload.BenchParams, opts Options) ([]*Result, error) {
	entries := make([]Entry, len(suite))
	for i, p := range suite {
		entries[i] = EntryFor(p)
	}
	return RunEntries(entries, opts)
}

// RunEntries is RunAllWithOptions over arbitrary entries, e.g. a
// mixed suite of SPEC stand-ins and irgen scenario families.
func RunEntries(entries []Entry, opts Options) ([]*Result, error) {
	inner := opts
	if par.Limit(opts.Parallelism, len(entries)) > 1 {
		inner.Parallelism = 1
	}
	out := make([]*Result, len(entries))
	err := par.Do(len(entries), opts.Parallelism, func(i int) error {
		r, err := RunEntry(entries[i], inner)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
