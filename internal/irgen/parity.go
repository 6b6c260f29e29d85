package irgen

// parity.go cross-checks the regcode VM engine against the tree
// reference interpreter observation for observation: any divergence —
// result value, error text, statistics counter, edge profile — is a
// violation. The native fuzz target (FuzzEngineParity) and the
// spillfuzz -parity sweep both drive these helpers.

import (
	"fmt"
	"reflect"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/tier"
	"repro/internal/vm"
)

// engineOutcome is everything observable about one engine's run.
type engineOutcome struct {
	val   int64
	err   string
	stats vm.Stats
	edges map[*ir.Edge]int64
}

func runOn(prog *ir.Program, e vm.Engine, cfg vm.Config, args []int64) engineOutcome {
	cfg.Engine = e
	m := vm.New(prog, cfg)
	val, err := m.Run(args...)
	o := engineOutcome{val: val, stats: m.Stats.Snapshot(), edges: m.EdgeCount}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// EngineParity runs prog on the regcode engine and on the tree
// reference under cfg and returns mismatch descriptions — nil when the
// two agree on every observable.
func EngineParity(prog *ir.Program, cfg vm.Config, args []int64) []string {
	ref := runOn(prog, vm.EngineTree, cfg, args)
	got := runOn(prog, vm.EngineRegcode, cfg, args)
	var ms []string
	if got.err != ref.err {
		ms = append(ms, fmt.Sprintf("regcode error %q, tree %q", got.err, ref.err))
	}
	if got.err == "" && got.val != ref.val {
		ms = append(ms, fmt.Sprintf("regcode value %d, tree %d", got.val, ref.val))
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		ms = append(ms, fmt.Sprintf("regcode stats %+v, tree %+v", got.stats, ref.stats))
	}
	if cfg.CollectEdges && !reflect.DeepEqual(got.edges, ref.edges) {
		ms = append(ms, "regcode edge counts diverge from tree")
	}
	return ms
}

// EngineParitySweep runs the per-seed parity battery: the raw program with edge collection under every given step budget
// (small budgets force mid-quantum halts), and — when the program
// profiles cleanly — the hierarchically placed program under
// callee-saved convention checking. The input program is not mutated.
func EngineParitySweep(prog *ir.Program, args []int64, budgets []int64) []string {
	var ms []string
	for _, b := range budgets {
		for _, m := range EngineParity(prog, vm.Config{CollectEdges: true, MaxSteps: b}, args) {
			ms = append(ms, fmt.Sprintf("budget %d: %s", b, m))
		}
	}
	placed := prog.Clone()
	if _, err := profile.CollectWithConfig(placed, vm.Config{MaxSteps: 1 << 22}, args...); err != nil {
		// Programs that fail to profile (e.g. nonterminating under the
		// cap) already exercised halt parity above.
		return ms
	}
	mach := machine.PARISC()
	if _, err := regalloc.AllocateProgramParallel(placed, mach, 1); err != nil {
		return append(ms, "alloc: "+err.Error())
	}
	if err := strategy.PlaceProgram(placed, strategy.HierarchicalJump, 1); err != nil {
		return append(ms, "place: "+err.Error())
	}
	for _, m := range EngineParity(placed, vm.Config{Machine: mach, CollectEdges: true, MaxSteps: 1 << 22}, args) {
		ms = append(ms, "placed: "+m)
	}
	return ms
}

// TierParitySweep cross-checks the tiered pipeline (internal/tier) on
// the regcode engine against the tree reference. Both tiered runs — estimate,
// allocate, tier 0 under the quantum, measured re-align + re-place,
// tier 1 under the remaining budget — must agree on error text,
// value, every merged and per-tier statistics counter, the boundary
// counters, and, byte for byte, the final tier-1 program; the shared
// final program must then itself hold engine parity (values, edge
// counts, step-limit halts) under edge collection. The input
// program is not mutated.
func TierParitySweep(prog *ir.Program, args []int64, quantum, budget int64) []string {
	ref, refErr, prepErr := tierOutcome(prog, vm.EngineTree, quantum, budget, args)
	if prepErr != nil {
		// Allocation failures are engine-independent; nothing to compare.
		return nil
	}
	got, gotErr, _ := tierOutcome(prog, vm.EngineRegcode, quantum, budget, args)
	var ms []string
	if gotErr != refErr {
		ms = append(ms, fmt.Sprintf("tiered regcode error %q, tree %q", gotErr, refErr))
	}
	if ref == nil || got == nil {
		if (ref == nil) != (got == nil) {
			ms = append(ms, "tiered regcode result presence diverges from tree")
		}
		return ms
	}
	if gotErr == "" && got.Value != ref.Value {
		ms = append(ms, fmt.Sprintf("tiered regcode value %d, tree %d", got.Value, ref.Value))
	}
	if !reflect.DeepEqual(got.Stats, ref.Stats) {
		ms = append(ms, fmt.Sprintf("tiered regcode stats %+v, tree %+v", got.Stats, ref.Stats))
	}
	if !reflect.DeepEqual(got.Tier0, ref.Tier0) || !reflect.DeepEqual(got.Tier1, ref.Tier1) {
		ms = append(ms, "tiered regcode per-tier stats diverge from tree")
	}
	if got.Boundary != ref.Boundary || got.Realigned != ref.Realigned || got.Replaced != ref.Replaced {
		ms = append(ms, fmt.Sprintf("tiered regcode boundary %v/%d/%d, tree %v/%d/%d",
			got.Boundary, got.Realigned, got.Replaced, ref.Boundary, ref.Realigned, ref.Replaced))
	}
	if irtext.Print(got.Final) != irtext.Print(ref.Final) {
		ms = append(ms, "tiered regcode final program diverges from tree")
	}
	// The tier-1 program is Align-reordered and freshly re-placed;
	// both engines must still agree on it exactly.
	mach := machine.PARISC()
	for _, m := range EngineParity(ref.Final, vm.Config{Machine: mach, CollectEdges: true, MaxSteps: 1 << 22}, args) {
		ms = append(ms, "tier-1 program: "+m)
	}
	return ms
}

// tierOutcome runs the full tiered pipeline for one engine on a fresh
// clone. prepErr reports engine-independent pipeline failures
// (allocation); errStr is the tiered run's error text.
func tierOutcome(prog *ir.Program, e vm.Engine, quantum, budget int64, args []int64) (res *tier.Result, errStr string, prepErr error) {
	p := prog.Clone()
	mach := machine.PARISC()
	profile.EstimateProgramMachine(p, mach, nil)
	if _, err := regalloc.AllocateProgramParallel(p, mach, 1); err != nil {
		return nil, "", err
	}
	res, err := tier.Run(p, tier.Config{
		Machine:     mach,
		Strategy:    strategy.HierarchicalJump,
		Quantum:     quantum,
		MaxSteps:    budget,
		Parallelism: 1,
		Engine:      e,
	}, args...)
	if err != nil {
		errStr = err.Error()
	}
	return res, errStr, nil
}
