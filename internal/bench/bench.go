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

// Strategies lists the evaluated strategies in figure order. Winners
// break ties in this order, so the simpler technique wins a tie.
var Strategies = []strategy.Strategy{
	strategy.EntryExit,
	strategy.Shrinkwrap,
	strategy.HierarchicalJump,
	strategy.HierarchicalExec,
}

// Label names an evaluated strategy as the paper's figures and the
// committed records do. Baseline is entry/exit placement, Shrinkwrap
// Chow's technique, and Optimized the hierarchical algorithm under the
// jump edge model, the configuration the paper evaluates.
// OptimizedExec is the hierarchical algorithm under the execution
// count model, realized with jump blocks. The paper could not
// evaluate it ("spill instructions placed on jump edges have no
// physical memory allocated to them" in GCC); this reproduction can,
// so it is included as an ablation of the cost model choice.
func Label(s strategy.Strategy) string {
	switch s {
	case strategy.EntryExit:
		return "Baseline"
	case strategy.Shrinkwrap:
		return "Shrinkwrap"
	case strategy.HierarchicalJump:
		return "Optimized"
	case strategy.HierarchicalExec:
		return "OptimizedExec"
	}
	return s.String()
}

// Result holds one benchmark's measurements.
type Result struct {
	Name string
	// Overhead is the measured dynamic spill overhead per strategy:
	// every spill load/store, callee-saved save/restore, and
	// jump-block jump executed.
	Overhead [strategy.Count]int64
	// PlacementTime is the incremental compile time each strategy
	// added (Baseline's is the reference and is ~0).
	PlacementTime [strategy.Count]time.Duration
	// ReturnValue is the program result, identical across strategies.
	ReturnValue int64
	// Stats holds the full VM execution counters per strategy
	// (deep-copied, so concurrent runs never share a Calls map).
	Stats [strategy.Count]vm.Stats
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
func (r *Result) Ratio(s strategy.Strategy) float64 {
	if r.Overhead[strategy.EntryExit] == 0 {
		return 100
	}
	return 100 * float64(r.Overhead[s]) / float64(r.Overhead[strategy.EntryExit])
}

// Options tweaks the pipeline.
type Options struct {
	// Align runs the jump-alignment layout pass (internal/layout) on
	// every procedure after allocation, before placement — the
	// configuration the paper mentions as making the jump edge cost
	// model more accurate.
	Align bool
	// Parallelism bounds the worker pools of the concurrent stages:
	// benchmark sharding in RunEntries and RunSweep, the VM
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

// RunEntry runs one entry through the evaluation loop on the classic
// preset, the paper's unit-cost machine, and times re-placement after
// an edit: Figure 5 and Tables 1 and 2 for one benchmark.
func RunEntry(e Entry, opts Options) (*Result, error) {
	ev, err := evaluate(e, machine.Presets()[:1], opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:         e.Name,
		ReturnValue:  ev.ReturnValue,
		Procedures:   len(ev.base.Funcs),
		SpilledVregs: ev.spilled,
	}
	for _, f := range ev.base.FuncsInOrder() {
		res.Instrs += f.Instrs()
	}
	for _, s := range Strategies {
		c := &ev.Cells[0][s]
		res.Overhead[s] = c.Stats.Overhead()
		res.Stats[s] = c.Stats
		res.PlacementTime[s] = c.PlacementTime
	}
	// Re-placement timing (Table 2's incremental columns) runs serially
	// after the evaluation, on the base the placements left unplaced.
	coldNs, sharedNs, incNs, rebuilds, _, err := measureReplacement(ev.base)
	if err != nil {
		return nil, fmt.Errorf("bench %s: re-placement: %w", e.Name, err)
	}
	res.ReplaceCold = time.Duration(coldNs)
	res.ReplaceShared = time.Duration(sharedNs)
	res.ReplaceIncremental = time.Duration(incNs)
	res.ReplaceRebuilds = rebuilds
	return res, nil
}

// RunEntries runs every entry through RunEntry on a bounded pool of
// workers (Options.Parallelism; <= 0 means GOMAXPROCS). Workers pull
// entries from a shared queue — so one heavyweight benchmark (gcc)
// does not serialize a whole static shard behind it — and write
// results back by position, so the result order and every measured
// count in it are identical to the serial path; only wall-clock time
// changes. On error the lowest-positioned failure is returned.
func RunEntries(entries []Entry, opts Options) ([]*Result, error) {
	out := make([]*Result, len(entries))
	err := eachEntry(len(entries), opts, func(i int, inner Options) (err error) {
		out[i], err = RunEntry(entries[i], inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachEntry runs fn for n entries on the Options.Parallelism pool.
// Only one level fans out at a time: when several entries run
// concurrently, each runs its inner stages serially; with a single
// entry (or parallelism 1) the inner stages get the pool instead.
func eachEntry(n int, opts Options, fn func(i int, inner Options) error) error {
	inner := opts
	if par.Limit(opts.Parallelism, n) > 1 {
		inner.Parallelism = 1
	}
	return par.Do(n, opts.Parallelism, func(i int) error { return fn(i, inner) })
}

// prepare generates e's program, weighs its edges — by a profiling run
// with argument 0, or with d's static estimate when estimate is set —
// register-allocates it once on d, and aligns it when Options.Align is
// set. It returns the program and its number of spilled virtual
// registers. Every harness measurement starts here.
func prepare(e Entry, d *machine.Desc, opts Options, estimate bool) (*ir.Program, int, error) {
	prog := e.Gen()
	if estimate {
		profile.EstimateProgramMachine(prog, d, nil)
	} else {
		if _, err := profile.Collect(prog, 0); err != nil {
			return nil, 0, fmt.Errorf("bench %s: profile: %w", e.Name, err)
		}
		if err := profile.Consistent(prog); err != nil {
			return nil, 0, fmt.Errorf("bench %s: %w", e.Name, err)
		}
	}
	// Functions are independent, so allocation fans out per function.
	alloc, err := regalloc.AllocateProgramOpts(prog, d, opts.Parallelism, regalloc.Options{MachineCosts: opts.MachineAlloc})
	if err != nil {
		return nil, 0, fmt.Errorf("bench %s: regalloc: %w", e.Name, err)
	}
	if opts.Align {
		for _, f := range prog.FuncsInOrder() {
			layout.Align(f)
		}
	}
	spilled := 0
	for _, r := range alloc {
		spilled += len(r.Spilled)
	}
	return prog, spilled, nil
}

// evaluation is one benchmark carried through the evaluation loop.
type evaluation struct {
	*SweepBench
	base    *ir.Program     // the prepared program, left unplaced
	spilled int             // allocator-spilled virtual registers
	builds  analysis.Counts // the shared analysis cache's build counters
	funcs   int             // functions placement visited
}

// evaluate is the evaluation loop every table and record shares:
// prepare once, compute every (machine, strategy) placement's sets on
// the shared base through one analysis cache, translate them onto a
// clone each, and run every clone under convention checking. All
// machines must share one register file: the allocation and the
// convention checker use machines[0].
func evaluate(e Entry, machines []*machine.Desc, opts Options) (*evaluation, error) {
	prog, spilled, err := prepare(e, machines[0], opts, false)
	if err != nil {
		return nil, err
	}
	res := &SweepBench{Name: e.Name, Cells: make([][strategy.Count]SweepCell, len(machines))}
	cache := analysis.NewCache()
	funcs := strategy.NeedsPlacement(prog)

	// Placement is the timed stage (Table 2), so it stays serial across
	// (machine, strategy) pairs — two placements of the same benchmark
	// never compete for CPUs and pollute each other's timings; each may
	// still fan out per function. Liveness, dominators, loops, the PST
	// and the shrink-wrap seed are built once per function, by
	// whichever placement first needs them. A strategy whose placement
	// cannot depend on the machine computes, applies, and executes
	// once — its cells for the other machines reprice the one
	// measurement (pricing happens after the fact, on the class
	// counts), with the placement time charged to the first machine
	// and zero for the repriced ones.
	type run struct {
		mi    int // machine that owns the VM execution
		s     strategy.Strategy
		clone *ir.Program
		all   bool // result is repriced for every machine
	}
	var runs []run
	for mi, d := range machines {
		for _, s := range Strategies {
			dependent := machineDependent(s, machines)
			if mi > 0 && !dependent {
				continue
			}
			sets, elapsed, err := computeSets(funcs, s, opts.Parallelism, cache, d)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %s@%s: %w", e.Name, Label(s), d.Name, err)
			}
			res.Cells[mi][s].PlacementTime = elapsed
			// The modeled cost prices the same sets with each machine's
			// jump-edge model, so it is filled for every machine the
			// placement serves.
			for pm, pd := range machines {
				if pm != mi && dependent {
					continue
				}
				model := core.MachineModel{Desc: pd, ChargeJumps: true}
				for _, fs := range sets {
					res.Cells[pm][s].Modeled += core.TotalCost(model, fs)
				}
			}
			clone := prog.Clone()
			if err := applySets(clone, funcs, sets, opts.Parallelism); err != nil {
				return nil, fmt.Errorf("bench %s: %s@%s: %w", e.Name, Label(s), d.Name, err)
			}
			runs = append(runs, run{mi, s, clone, !dependent})
		}
	}

	// Measurement runs are independent (one clone, one VM each) and
	// fan out across the pool. Each cell is written by exactly one
	// worker; the cross-run return value check runs after the barrier,
	// in run order, so failures are reported as the serial loop would.
	vals := make([]int64, len(runs))
	err = par.Do(len(runs), opts.Parallelism, func(i int) error {
		r := runs[i]
		v := vm.New(r.clone, vm.Config{Machine: machines[0]})
		val, err := v.Run(0)
		if err != nil {
			return fmt.Errorf("bench %s: %s@%s run: %w", e.Name, Label(r.s), machines[r.mi].Name, err)
		}
		vals[i] = val
		st := v.Stats.Snapshot()
		for pm, pd := range machines {
			if pm == r.mi || r.all {
				res.Cells[pm][r.s].Stats = st
				res.Cells[pm][r.s].WeightedOverhead = st.WeightedOverhead(pd.Costs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ReturnValue = vals[0]
	for i, v := range vals {
		if v != res.ReturnValue {
			return nil, fmt.Errorf("bench %s: %s@%s computed %d, want %d",
				e.Name, Label(runs[i].s), machines[runs[i].mi].Name, v, res.ReturnValue)
		}
	}
	return &evaluation{res, prog, spilled, cache.Counts(), len(funcs)}, nil
}

// machineDependent reports whether the strategy's placement can differ
// across the swept machines. The hierarchical strategies optimize the
// machine's cost model; Chow's shrink-wrapping reads only the
// machine's jump-charging verdict, so it is machine-dependent only
// when the swept machines disagree on it; entry/exit placement never
// consults a machine.
func machineDependent(s strategy.Strategy, machines []*machine.Desc) bool {
	if s.IsHierarchical() {
		return true
	}
	if s == strategy.Shrinkwrap {
		first := machines[0].Costs.JumpCost() > 0
		for _, d := range machines[1:] {
			if (d.Costs.JumpCost() > 0) != first {
				return true
			}
		}
	}
	return false
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
func computeSets(funcs []*ir.Func, s strategy.Strategy, parallelism int, cache *analysis.Cache, d *machine.Desc) ([][]*core.Set, time.Duration, error) {
	sets := make([][]*core.Set, len(funcs))
	var mu sync.Mutex
	var elapsed time.Duration
	err := par.Do(len(funcs), parallelism, func(i int) error {
		f := funcs[i]
		info := cache.For(f)
		start := time.Now()
		fs, err := strategy.Compute(f, s, info, d)
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
		sets, err := strategy.Compute(f, strategy.HierarchicalJump, info, nil)
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
		if _, err := strategy.Compute(f, strategy.HierarchicalJump, info, nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: incremental: %w", f.Name, err)
		}
		incNs += time.Since(start).Nanoseconds()
		after := info.Counts()
		if after.Liveness != before.Liveness || after.Dom != before.Dom ||
			after.Loops != before.Loops || after.PST != before.PST || after.SplitDom != before.SplitDom {
			rebuilds++
		}

		start = time.Now()
		if _, err := strategy.Compute(f, strategy.HierarchicalJump, info, nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: shared: %w", f.Name, err)
		}
		sharedNs += time.Since(start).Nanoseconds()

		start = time.Now()
		if _, err := strategy.Compute(f, strategy.HierarchicalJump, analysis.For(f), nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: cold: %w", f.Name, err)
		}
		coldNs += time.Since(start).Nanoseconds()
	}
	return coldNs, sharedNs, incNs, rebuilds, funcs, nil
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
