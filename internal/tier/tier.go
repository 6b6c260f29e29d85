// Package tier implements a two-tier, JIT-style execution pipeline
// over the placement stack: tier 0 compiles the program with
// static-estimate edge weights and runs it under lightweight edge
// profiling for a bounded step quantum; at the tier boundary the
// measured edge counts are written back onto the CFG, layout.Align
// re-chains blocks hottest-fall-through, the affected functions are
// re-placed through the delta-aware analysis cache path, and execution
// resumes on the freshly compiled tier-1 program with the remaining
// step budget.
//
// The tier contract:
//
//   - Tier 0 executes at most Quantum steps. If the program finishes
//     inside the quantum there is no boundary: the final program keeps
//     the static placement tier 0 ran, and the result is exactly the
//     untiered result.
//   - At a boundary, tier 1 restarts the re-placed program from the
//     beginning on a fresh VM (programs are deterministic and
//     self-contained, so a restart recomputes the same value; there is
//     no on-stack replacement). Merged statistics are the exact sum of
//     both tiers.
//   - Step budgets carry over exactly: every engine halts with
//     Stats.Instrs == MaxSteps (see vm.ErrStepLimit), so tier 1's
//     budget is MaxSteps - Quantum and a tiered run never executes
//     more than MaxSteps counted steps in total.
package tier

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// DefaultQuantum is the tier-0 step budget when Config.Quantum is
// zero: long enough that loop-heavy regions reach their steady-state
// branch behavior, short next to any real execution budget.
const DefaultQuantum int64 = 1 << 16

// Config controls a tiered run.
type Config struct {
	// Machine prices placement and enables the VM's callee-saved
	// convention checking. Nil means the paper's unit-cost machine and
	// no convention enforcement.
	Machine *machine.Desc
	// Strategy is the placement technique both tiers use.
	Strategy strategy.Strategy
	// Quantum is the tier-0 step budget (default DefaultQuantum). It
	// is clamped to MaxSteps.
	Quantum int64
	// MaxSteps is the total execution budget across both tiers (zero
	// means vm.DefaultMaxSteps).
	MaxSteps int64
	// Parallelism bounds the per-function placement worker pool; <= 0
	// means GOMAXPROCS.
	Parallelism int
	// Cache is the shared analysis cache the final program's placement
	// runs through (the delta-aware strategy.PlaceCachedFor path). May
	// be nil. The throwaway tier-0 clone always uses a private cache so
	// its short-lived functions never pin entries in a shared one.
	Cache *analysis.Cache
	// NoAlign disables the layout.Align step. By default both tiers
	// align: tier 0 with the static weights, tier 1 with the measured
	// ones, so a measured-vs-static comparison isolates profile
	// quality rather than alignment itself.
	NoAlign bool
	// Engine selects the VM engine for both tiers. The zero value is
	// the VM default, regcode, which counts edges in its fast path, so
	// profiling tier 0 costs no fallback to a slower engine.
	Engine vm.Engine
}

// Result reports a tiered execution.
type Result struct {
	// Final is the program that holds after the run: the input program
	// itself, mutated — measured weights on its edges at a boundary,
	// aligned unless NoAlign, and placed.
	Final *ir.Program
	// Value is the program result. Valid only when Run returned nil.
	Value int64
	// Stats is the exact sum of both tiers' counters.
	Stats vm.Stats
	// Tier0 and Tier1 are the per-tier counters (Tier1 is zero when no
	// boundary was hit).
	Tier0, Tier1 vm.Stats
	// Boundary reports whether tier 0 exhausted its quantum and the
	// program was re-placed and re-run.
	Boundary bool
	// Realigned counts functions whose block order changed at the
	// boundary's measured-weight alignment.
	Realigned int
	// Replaced counts functions re-placed at the boundary.
	Replaced int
}

// Run executes prog through the tiered pipeline. prog must be
// allocated but not yet placed, and carry static-estimate edge weights
// (profile.EstimateProgramMachine); Run mutates it into the final
// tier-1 program. On a step-limit halt the returned error wraps
// vm.ErrStepLimit and the Result still carries the exact merged
// statistics (Stats.Instrs equals the total budget).
func Run(prog *ir.Program, cfg Config, args ...int64) (*Result, error) {
	budget := cfg.MaxSteps
	if budget <= 0 {
		budget = vm.DefaultMaxSteps
	}
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if quantum > budget {
		quantum = budget
	}

	// Tier 0 runs a throwaway clone so the input program stays
	// unplaced until the boundary decides its final weights. The edge
	// correspondence is taken before any mutation: Clone preserves
	// block and edge order, so the two Edges() lists pair by index.
	p0 := prog.Clone()
	corr, err := edgeCorrespondence(p0, prog)
	if err != nil {
		return nil, err
	}
	if !cfg.NoAlign {
		for _, f := range p0.FuncsInOrder() {
			layout.Align(f)
		}
	}
	splitFrom, err := placeWithSplits(p0, cfg, analysis.NewCache())
	if err != nil {
		return nil, fmt.Errorf("tier: tier 0 placement: %w", err)
	}

	st0, val, completed, err := profile.CollectPartial(p0, vm.Config{
		Machine:  cfg.Machine,
		MaxSteps: quantum,
		Engine:   cfg.Engine,
	}, args...)
	if err != nil {
		return nil, fmt.Errorf("tier: tier 0 run: %w", err)
	}

	res := &Result{Final: prog, Tier0: st0.Snapshot()}
	res.Stats = st0.Snapshot()

	if completed {
		// No boundary. Give prog the placement tier 0 actually ran —
		// the static one — through the shared cache, so the caller ends
		// in the same state as an untiered pipeline.
		if err := alignAndPlace(prog, cfg, nil); err != nil {
			return nil, err
		}
		res.Value = val
		return res, nil
	}
	res.Boundary = true

	// Boundary: map the measured counts from the placed clone back
	// onto prog's pre-placement edges. A surviving edge carries its
	// count directly; a placement-split edge u->v became u->jb->v, and
	// every traversal of the original edge crossed u->jb, so that
	// edge's count is the original's.
	for e0, e := range corr {
		if fe := splitFrom[e0]; fe != nil {
			e.Weight = fe.Weight
		} else {
			e.Weight = e0.Weight
		}
	}
	for _, f := range prog.FuncsInOrder() {
		f.EntryCount = st0.Calls[f.Name]
	}

	if err := alignAndPlace(prog, cfg, res); err != nil {
		return nil, err
	}
	res.Replaced = len(strategy.NeedsPlacement(prog))

	remaining := budget - st0.Instrs // == budget - quantum: halts count exactly MaxSteps
	if remaining <= 0 {
		// The quantum was the whole budget: the re-placed program is
		// installed but there is nothing left to run it with. Report
		// the halt the way an untiered run at this budget would.
		return res, fmt.Errorf("tier: tier 0 exhausted the budget: %w", vm.ErrStepLimit)
	}

	m := vm.New(prog, vm.Config{Machine: cfg.Machine, MaxSteps: remaining, Engine: cfg.Engine})
	val, err = m.Run(args...)
	res.Tier1 = m.Stats.Snapshot()
	res.Stats.Merge(&res.Tier1)
	if err != nil {
		// Typically the step limit: tier 1 counted exactly `remaining`
		// steps, so the merged Stats.Instrs equals the full budget.
		return res, fmt.Errorf("tier: tier 1: %w", err)
	}
	res.Value = val
	return res, nil
}

// alignAndPlace aligns every function (unless NoAlign), invalidating
// the shared cache for reordered analyses, then places the program
// through the delta-aware shared-cache path. When res is non-nil the
// alignment change count is recorded on it.
func alignAndPlace(prog *ir.Program, cfg Config, res *Result) error {
	if !cfg.NoAlign {
		for _, f := range prog.FuncsInOrder() {
			if alignFunc(f) && res != nil {
				res.Realigned++
			}
			// Align renumbers blocks and reclassifies edge kinds, so
			// any ID-indexed memoized analysis of f is stale.
			cfg.Cache.Invalidate(f)
		}
	}
	if err := strategy.PlaceProgramFor(prog, cfg.Strategy, cfg.Machine, cfg.Parallelism, cfg.Cache); err != nil {
		return fmt.Errorf("tier: placement: %w", err)
	}
	return nil
}

// alignFunc runs layout.Align and reports whether the block order
// actually changed.
func alignFunc(f *ir.Func) bool {
	before := append([]*ir.Block(nil), f.Blocks...)
	layout.Align(f)
	for i, b := range f.Blocks {
		if before[i] != b {
			return true
		}
	}
	return false
}

// edgeCorrespondence pairs src's edges with dst's by function order
// and edge index — valid because ir clones preserve block layout and
// edge order — returning a pointer map that survives any later
// reordering of either program.
func edgeCorrespondence(src, dst *ir.Program) (map[*ir.Edge]*ir.Edge, error) {
	sf, df := src.FuncsInOrder(), dst.FuncsInOrder()
	if len(sf) != len(df) {
		return nil, fmt.Errorf("tier: program shape mismatch: %d vs %d functions", len(sf), len(df))
	}
	m := make(map[*ir.Edge]*ir.Edge)
	for i := range sf {
		se, de := sf[i].Edges(), df[i].Edges()
		if len(se) != len(de) {
			return nil, fmt.Errorf("tier: %s: edge count mismatch: %d vs %d", sf[i].Name, len(se), len(de))
		}
		for j := range se {
			m[se[j]] = de[j]
		}
	}
	return m, nil
}

// placeWithSplits is the tier-0 variant of strategy.PlaceProgramFor:
// the same compute/validate/apply-with-delta pipeline per function,
// but it keeps each delta's edge splits so the boundary can map counts
// measured on the placed clone back onto pre-placement edges.
func placeWithSplits(prog *ir.Program, cfg Config, cache *analysis.Cache) (map[*ir.Edge]*ir.Edge, error) {
	funcs := strategy.NeedsPlacement(prog)
	splits := make([][]core.EdgeSplit, len(funcs))
	err := par.Do(len(funcs), cfg.Parallelism, func(i int) error {
		f := funcs[i]
		info := cache.For(f)
		sets, err := strategy.ComputeCachedFor(f, cfg.Strategy, info, cfg.Machine)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if err := core.ValidateSetsLive(f, sets, info.Liveness()); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		delta, err := core.ApplyWithDelta(f, sets)
		info.ApplyDelta(delta)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		splits[i] = delta.Splits
		return nil
	})
	if err != nil {
		return nil, err
	}
	splitFrom := make(map[*ir.Edge]*ir.Edge)
	for _, ss := range splits {
		for _, s := range ss {
			splitFrom[s.OldEdge] = s.FromEdge
		}
	}
	return splitFrom, nil
}
