// Package strategy enumerates the callee-saved spill code placement
// techniques the reproduction compares and computes their save/restore
// sets. Its Strategy is the one enum and Compute/Place the one
// dispatch shared by the public facade (spillopt, which aliases the
// enum), the evaluation harness (internal/bench, which only adds
// figure labels), the tiered pipeline, the service, and the
// differential fuzzing oracle (internal/irgen): a strategy added or
// fixed here reaches all of them.
package strategy

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/shrinkwrap"
)

// Strategy selects a placement technique.
type Strategy int

const (
	// EntryExit saves at procedure entry and restores at every exit
	// (the paper's baseline).
	EntryExit Strategy = iota
	// Shrinkwrap is Chow's original technique: artificial data flow
	// keeps spill code off jump edges.
	Shrinkwrap
	// ShrinkwrapSeed is the paper's modified shrink-wrapping (spill
	// code may sit on jump edges), the hierarchical algorithm's seed.
	ShrinkwrapSeed
	// HierarchicalExec is the paper's algorithm under the execution
	// count cost model (provably optimal under that model).
	HierarchicalExec
	// HierarchicalJump is the paper's algorithm under the jump edge
	// cost model — the configuration the paper evaluates.
	HierarchicalJump
	numStrategies
)

// All lists every strategy in declaration order.
var All = []Strategy{EntryExit, Shrinkwrap, ShrinkwrapSeed, HierarchicalExec, HierarchicalJump}

// Count is the number of strategies.
const Count = int(numStrategies)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case EntryExit:
		return "entry-exit"
	case Shrinkwrap:
		return "shrinkwrap"
	case ShrinkwrapSeed:
		return "shrinkwrap-seed"
	case HierarchicalExec:
		return "hierarchical-exec"
	case HierarchicalJump:
		return "hierarchical-jump"
	}
	return "?"
}

// IsHierarchical reports whether the strategy runs the paper's
// hierarchical traversal (and therefore consumes a cost model).
func (s Strategy) IsHierarchical() bool {
	return s == HierarchicalExec || s == HierarchicalJump
}

// model returns the cost model a hierarchical strategy optimizes on
// machine d — the machine-priced execution count or jump edge model,
// or the paper's unit-cost models when d is nil — and nil for the
// strategies that consume no model.
func model(s Strategy, d *machine.Desc) core.CostModel {
	switch {
	case s == HierarchicalExec && d == nil:
		return core.ExecCountModel{}
	case s == HierarchicalJump && d == nil:
		return core.JumpEdgeModel{}
	case s.IsHierarchical():
		return core.MachineModel{Desc: d, ChargeJumps: s == HierarchicalJump}
	}
	return nil
}

// Compute returns the strategy's save/restore sets for one allocated
// function on machine d, without mutating it. The hierarchical
// strategies optimize d's cost surface and Chow's shrink-wrapping
// reads d's jump-edge rule; a nil machine means the paper's unit-cost
// machine. Liveness, dominators, loops, the PST and the shrink-wrap
// seed come from info, built on first use; the memoized analyses are
// machine-independent, so one info serves every strategy on every
// machine. A nil info means a throwaway build.
func Compute(f *ir.Func, s Strategy, info *analysis.Info, d *machine.Desc) ([]*core.Set, error) {
	return compute(f, s, info, d, nil)
}

// ComputeWithModel is Compute on the paper's machine with the
// hierarchical strategies' cost model replaced by m. The differential
// oracle uses it to prove it can catch a broken model; a nil m means
// the paper's models.
func ComputeWithModel(f *ir.Func, s Strategy, info *analysis.Info, m core.CostModel) ([]*core.Set, error) {
	return compute(f, s, info, nil, m)
}

// compute is the single dispatch behind Compute and ComputeWithModel;
// a non-nil m overrides the machine's model for the hierarchical
// strategies.
func compute(f *ir.Func, s Strategy, info *analysis.Info, d *machine.Desc, m core.CostModel) ([]*core.Set, error) {
	if info == nil {
		info = analysis.For(f)
	}
	switch s {
	case EntryExit:
		return core.EntryExit(f), nil
	case Shrinkwrap:
		return shrinkwrap.ComputeWith(f, shrinkwrap.Original, shrinkwrap.Inputs{
			Liveness: info.Liveness(),
			Loops:    info.Loops(),
			Busy:     info.BusyBlocks,
			Machine:  d,
		}), nil
	case ShrinkwrapSeed:
		// The memoized sets are shared with the hierarchical seeds, so
		// hand the caller its own top-level slice.
		return append([]*core.Set(nil), info.ShrinkwrapSeed()...), nil
	case HierarchicalExec, HierarchicalJump:
		t, err := info.PST()
		if err != nil {
			return nil, err
		}
		if m == nil {
			m = model(s, d)
		}
		sets, _, err := core.Hierarchical(f, t, info.ShrinkwrapSeed(), m)
		if err != nil {
			return nil, err
		}
		return sets, nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %d", int(s))
}

// Place computes the strategy's sets for f on machine d (as Compute),
// validates them, and applies them, inserting save/restore code and
// jump blocks. It returns the applied edit: the delta has already
// patched info's memoized analyses in place (falling back to full
// invalidation for unrecognized edits), so no caller can read stale
// results afterwards. A nil info means a throwaway build.
func Place(f *ir.Func, s Strategy, info *analysis.Info, d *machine.Desc) (*core.Delta, error) {
	if info == nil {
		info = analysis.For(f)
	}
	sets, err := Compute(f, s, info, d)
	if err != nil {
		return nil, err
	}
	if err := core.ValidateSetsLive(f, sets, info.Liveness()); err != nil {
		return nil, err
	}
	// Apply mutates f even on failure, and then reports a Full delta,
	// which invalidates info.
	delta, err := core.ApplyWithDelta(f, sets)
	info.ApplyDelta(delta)
	return delta, err
}

// PlaceProgram places every function of prog that uses callee-saved
// registers on machine d (nil means the paper's unit-cost machine),
// fanning the independent per-function pipelines (PST build, seeding,
// traversal, validation, apply) across a bounded worker pool;
// parallelism <= 0 means GOMAXPROCS. Each worker touches only its own
// function's Info, so one program-wide cache is safe to share across
// the pool; a nil cache means unshared per-function builds.
func PlaceProgram(prog *ir.Program, s Strategy, d *machine.Desc, parallelism int, cache *analysis.Cache) error {
	funcs := NeedsPlacement(prog)
	return par.Do(len(funcs), parallelism, func(i int) error {
		if _, err := Place(funcs[i], s, cache.For(funcs[i]), d); err != nil {
			return fmt.Errorf("%s: %w", funcs[i].Name, err)
		}
		return nil
	})
}

// NeedsPlacement returns the functions whose allocation uses
// callee-saved registers, in program order — the functions placement
// must visit.
func NeedsPlacement(prog *ir.Program) []*ir.Func {
	var funcs []*ir.Func
	for _, f := range prog.FuncsInOrder() {
		if len(f.UsedCalleeSaved) != 0 {
			funcs = append(funcs, f)
		}
	}
	return funcs
}
