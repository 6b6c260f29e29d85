// Package spillopt is the public face of a reproduction of "Post
// Register Allocation Spill Code Optimization" (Lupo & Wilken, CGO
// 2006): profile-guided hierarchical placement of callee-saved
// save/restore code over the program structure tree.
//
// The package wraps the full pipeline the paper evaluates:
//
//	prog, _ := spillopt.ParseProgram(src)   // textual IR in
//	prog.Profile()                          // run once, collect edge counts
//	prog.Allocate()                         // Chaitin/Briggs coloring
//	prog.Place(spillopt.HierarchicalJump)   // the paper's algorithm
//	res, _ := prog.Run()                    // measure dynamic overhead
//
// Lower-level building blocks (the IR, PST construction, the cost
// models, Chow's shrink-wrapping) live in internal packages; this
// facade covers the supported use cases: compiling a procedure,
// choosing a placement strategy, inspecting the placement, and
// reproducing the paper's evaluation.
package spillopt

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/tier"
	"repro/internal/vm"
)

// Strategy selects a callee-saved spill code placement technique.
type Strategy int

const (
	// EntryExit saves at procedure entry and restores at every exit
	// (the paper's baseline).
	EntryExit Strategy = iota
	// Shrinkwrap is Chow's original technique: artificial data flow
	// keeps spill code out of loops and off jump edges.
	Shrinkwrap
	// ShrinkwrapSeed is the paper's modified shrink-wrapping (no
	// artificial data flow; spill code may sit on jump edges). It is
	// the seed of the hierarchical algorithm, exposed for study.
	ShrinkwrapSeed
	// HierarchicalExec is the paper's algorithm under the execution
	// count cost model (provably optimal, but ignores the jump
	// instructions that jump blocks need).
	HierarchicalExec
	// HierarchicalJump is the paper's algorithm under the jump edge
	// cost model — the configuration evaluated in the paper.
	HierarchicalJump
)

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

// Strategies lists every strategy name in declaration order.
func Strategies() []string {
	out := make([]string, 0, len(strategy.All))
	for _, s := range strategy.All {
		out = append(out, Strategy(s).String())
	}
	return out
}

// ParseStrategy maps a strategy name (as produced by String) back to
// the Strategy, for tools that take the strategy as text.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range strategy.All {
		if Strategy(s).String() == name {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("spillopt: unknown strategy %q (have %s)", name, strings.Join(Strategies(), ", "))
}

// Result reports a measured execution.
type Result struct {
	// Value is the program's return value.
	Value int64
	// Instrs is the total dynamic instruction count.
	Instrs int64
	// Overhead is the dynamic spill code overhead: executed spill
	// loads/stores, callee-saved saves/restores, and jump-block jumps.
	Overhead int64
	// Cost is the overhead priced with the machine's cost surface
	// (spill latencies, taken-jump penalty). On the default machine —
	// unit costs, like the paper's — it equals Overhead.
	Cost int64
	// Breakdown of the overhead.
	SpillLoads, SpillStores int64
	Saves, Restores         int64
	JumpBlockJumps          int64
}

// Program is a compiled program moving through the pipeline.
type Program struct {
	prog *ir.Program
	mach *machine.Desc

	// cache shares the per-function analyses (liveness, dominators,
	// loops, PST, shrink-wrap seed) across the pipeline stages and the
	// inspection helpers; mutating stages invalidate it.
	cache *analysis.Cache

	// Parallelism bounds the worker pool used by Allocate and Place
	// for per-function work (functions are independent after parsing).
	// Zero or negative means GOMAXPROCS; 1 forces the serial path.
	// Results are identical for any value.
	Parallelism int

	// eng is the engine selected by UseEngine; the zero value is the
	// default regcode engine.
	eng vm.Engine

	// MaxSteps bounds every VM execution (Profile and Run). Zero
	// means the VM's default budget; services handling untrusted IR
	// set a tight limit so a runaway program costs bounded CPU.
	MaxSteps int64

	// sharedCache marks a cache injected via UseAnalysisCache and
	// owned by a longer-lived service; Close then drops only this
	// program's entries instead of everything.
	sharedCache bool

	// Tiered pipeline state (UseTiering): the quantum, the strategy
	// Place recorded, whether the tiered Run is still pending, and the
	// last tiered result for TierReport.
	tiering      bool
	tierQuantum  int64
	tierStrategy Strategy
	tierPending  bool
	tierRes      *tier.Result

	// useLayout/aligned: profile-guided block alignment for the
	// untiered pipeline (UseLayout), applied lazily once.
	useLayout bool
	aligned   bool

	// allocMachine prices the allocator's spill choices with the
	// machine's cost surface (UseMachineAllocation).
	allocMachine bool

	profiled  bool
	allocated bool
	placed    bool
}

// ParseProgram reads a program in the textual IR format (see the
// repository README for the syntax).
func ParseProgram(src string) (*Program, error) {
	p, err := irtext.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p, mach: machine.PARISC(), cache: analysis.NewCache()}, nil
}

// Machine returns the target description (PA-RISC-like: 24 allocatable
// registers, 13 callee-saved) and its cost surface.
func (p *Program) Machine() MachineInfo {
	return MachineInfo{
		Name:        p.mach.Name,
		Registers:   p.mach.NumRegs,
		CalleeSaved: p.mach.NumCalleeSaved(),
		Costs:       p.mach.Costs,
	}
}

// MachineInfo describes the modeled target.
type MachineInfo struct {
	Name        string
	Registers   int
	CalleeSaved int
	// Costs prices the target's spill overhead (see internal/machine):
	// the placement cost models optimize it and Result.Cost reports
	// measured overhead priced with it.
	Costs machine.Costs
}

// Machines lists the named machine cost presets UseMachine accepts,
// in report order. Every preset shares the PA-RISC register file and
// differs only in its cost surface.
func Machines() []string { return machine.PresetNames() }

// UseMachine retargets the pipeline to a named machine cost preset
// (see Machines): the hierarchical strategies optimize the preset's
// latencies and Result.Cost prices measured overhead with them. It
// must be called before Allocate so every later stage sees one
// consistent machine.
func (p *Program) UseMachine(name string) error {
	if p.allocated {
		return fmt.Errorf("spillopt: UseMachine must run before Allocate")
	}
	d, err := machine.Preset(name)
	if err != nil {
		return err
	}
	p.mach = d
	return nil
}

// AllocModes lists the allocation modes the alloc option accepts:
// "uniform" is the paper's def+use-count spill heuristic, "machine"
// prices spill candidates with the machine's cost surface.
func AllocModes() []string { return []string{"uniform", "machine"} }

// ParseAllocMode resolves an allocation mode name ("" defaults to
// uniform) to whether machine-priced allocation is requested.
func ParseAllocMode(name string) (bool, error) {
	switch name {
	case "", "uniform":
		return false, nil
	case "machine":
		return true, nil
	}
	return false, fmt.Errorf("spillopt: unknown alloc mode %q (have %s)", name, strings.Join(AllocModes(), ", "))
}

// UseMachineAllocation makes Allocate price each spill candidate with
// the machine's cost surface — StoreCost per profile-weighted def,
// LoadCost per profile-weighted use — instead of the uniform
// def+use count. On the classic (unit-cost) preset the result is
// byte-identical to the uniform allocator; presets whose store and
// load latencies differ may spill different webs. Like UseMachine it
// must be called before Allocate.
func (p *Program) UseMachineAllocation() error {
	if p.allocated {
		return fmt.Errorf("spillopt: UseMachineAllocation must run before Allocate")
	}
	p.allocMachine = true
	return nil
}

// Profile executes the program once with the given arguments and
// records edge execution counts on the CFG, which the allocator's
// spill heuristic and the placement cost models consume.
func (p *Program) Profile(args ...int64) error {
	if p.allocated {
		return fmt.Errorf("spillopt: Profile must run before Allocate")
	}
	if _, err := profile.CollectWithConfig(p.prog, vm.Config{Engine: p.eng, MaxSteps: p.MaxSteps}, args...); err != nil {
		return err
	}
	if err := profile.Consistent(p.prog); err != nil {
		return err
	}
	p.profiled = true
	return nil
}

// UseTiering enables the two-tier profile-guided pipeline for this
// program: Place records the strategy instead of applying it, and the
// first Run executes tier 0 (static-estimate placement under edge
// profiling, bounded by the quantum), re-aligns and re-places with the
// measured weights at the tier boundary, and finishes on the tier-1
// program — see internal/tier for the contract. quantum <= 0 selects
// tier.DefaultQuantum. Like UseMachine it must be called before
// Allocate, because the static-estimate weights tier 0 compiles
// against also feed the allocator's spill heuristic.
func (p *Program) UseTiering(quantum int64) error {
	if p.allocated {
		return fmt.Errorf("spillopt: UseTiering must run before Allocate")
	}
	p.tiering = true
	p.tierQuantum = quantum
	return nil
}

// UseLayout enables profile-guided jump alignment (layout.Align) in
// the untiered pipeline: before placement every function's blocks are
// re-chained so the hottest edges fall through, and the reclassified
// edge kinds flow into placement and PlacementCost. Under UseTiering
// it is a no-op — the tiered pipeline always aligns, tier 0 with the
// static weights and tier 1 with the measured ones.
func (p *Program) UseLayout() error {
	if p.placed || p.tierPending {
		return fmt.Errorf("spillopt: UseLayout must run before Place")
	}
	p.useLayout = true
	return nil
}

// ensureAligned applies UseLayout's alignment exactly once, as late as
// possible (placement or cost queries), so it sees the weights the
// pipeline ends up with. Alignment renumbers blocks and reclassifies
// edge kinds, so each function's memoized analyses are invalidated.
func (p *Program) ensureAligned() {
	if !p.useLayout || p.aligned || p.tiering {
		return
	}
	for _, f := range p.prog.FuncsInOrder() {
		layout.Align(f)
		p.cache.Invalidate(f)
	}
	p.aligned = true
}

// Allocate runs the Chaitin/Briggs graph-coloring register allocator
// on every procedure. Callee-saved save/restore code is NOT inserted;
// call Place to choose a placement strategy.
func (p *Program) Allocate() error {
	if p.allocated {
		return fmt.Errorf("spillopt: already allocated")
	}
	// Tier 0 compiles against static-estimate weights; synthesizing
	// them here lets the allocator's spill heuristic read the same
	// weights the tier-0 placement optimizes.
	if p.tiering && !p.profiled {
		profile.EstimateProgramMachine(p.prog, p.mach, p.cache)
	}
	if _, err := regalloc.AllocateProgramOpts(p.prog, p.mach, p.Parallelism, regalloc.Options{MachineCosts: p.allocMachine}); err != nil {
		return err
	}
	// Allocation rewrote instructions (spill code, physical registers),
	// so every memoized analysis of this program is stale. Invalidation
	// is per function: on a cache shared with other live programs
	// (UseAnalysisCache), a blanket InvalidateAll would throw away
	// their perfectly valid analyses.
	for _, f := range p.prog.FuncsInOrder() {
		p.cache.Invalidate(f)
	}
	p.allocated = true
	return nil
}

// Place computes and applies the strategy's callee-saved save/restore
// placement to every procedure that needs one. The placement is
// validated structurally before it is applied.
func (p *Program) Place(s Strategy) error {
	if !p.allocated {
		return fmt.Errorf("spillopt: Allocate before Place")
	}
	if p.placed || p.tierPending {
		return fmt.Errorf("spillopt: already placed")
	}
	// Under tiering the placement is deferred: tier 0 places a
	// throwaway clone with the static weights, and the real program is
	// placed at the tier boundary with measured ones. Run drives it.
	if p.tiering {
		p.tierStrategy = s
		p.tierPending = true
		return nil
	}
	p.ensureAligned()
	// Each placement reads and mutates only its own function, so the
	// per-function pipeline (PST build, shrink-wrap seed, hierarchical
	// traversal, validation, apply) fans out across the pool. The
	// machine description carries the cost surface the hierarchical
	// strategies optimize.
	if err := strategy.PlaceProgramFor(p.prog, computeStrategy(s), p.mach, p.Parallelism, p.cache); err != nil {
		return err
	}
	p.placed = true
	return nil
}

// computeStrategy maps the public enum to the shared dispatch in
// internal/strategy. The two enums declare the same values in the same
// order; the tests pin the correspondence.
func computeStrategy(s Strategy) strategy.Strategy { return strategy.Strategy(s) }

// AnalysisStats reports the shared analysis layer's activity: cache
// lookups, per-analysis build counts, and how placement edits were
// absorbed — patched in place from a core.Delta, or by falling back to
// a full invalidation. In a healthy pipeline DeltaFull stays 0: every
// Place edit is a recognized shape the analyses patch incrementally.
type AnalysisStats struct {
	// Hits and Misses count per-function cache lookups (a miss creates
	// the function's analysis handle).
	Hits, Misses int
	// Builds per analysis, summed over all functions. SplitDom counts
	// the PST's internal split-graph dominator-tree computations, the
	// expensive core the builder memoizes across rebuild requests.
	Liveness, Dom, Loops, PST, SplitDom, Seed int
	// DeltaPatched and DeltaFull count placement edits absorbed
	// incrementally vs by full invalidation.
	DeltaPatched, DeltaFull int
}

// UseAnalysisCache points the pipeline at a shared program-level
// analysis cache owned by a long-lived caller (the placement service
// shares one across every request it handles). It must be called
// before Profile/Allocate/Place so every stage sees one cache. The
// caller owns the cache's lifetime: either call Close when done with
// this Program, or run an eviction policy over IRFuncs keys that
// calls the cache's Drop — otherwise the cache pins every program
// ever compiled (the leak Invalidate alone never fixes).
func (p *Program) UseAnalysisCache(c *analysis.Cache) {
	if c == nil {
		return
	}
	p.cache = c
	p.sharedCache = true
}

// Close releases the program's per-function entries from its analysis
// cache so the functions (and everything their analyses pin) can be
// collected. On a program-owned cache it drops everything; on a cache
// injected with UseAnalysisCache it drops only this program's
// functions. Close is idempotent and the Program remains usable — the
// next analysis consumer just rebuilds.
func (p *Program) Close() {
	if !p.sharedCache {
		p.cache.DropAll()
		return
	}
	for _, f := range p.prog.FuncsInOrder() {
		p.cache.Drop(f)
	}
}

// IRFuncs exposes the program's functions (in definition order) to
// in-process services that manage a shared analysis cache's lifetime:
// the returned pointers are exactly the cache keys an eviction policy
// must eventually Drop.
func (p *Program) IRFuncs() []*ir.Func { return p.prog.FuncsInOrder() }

// AnalysisStats returns the pipeline's analysis-layer counters so far.
func (p *Program) AnalysisStats() AnalysisStats {
	hits, misses := p.cache.Stats()
	c := p.cache.Counts()
	return AnalysisStats{
		Hits: hits, Misses: misses,
		Liveness: c.Liveness, Dom: c.Dom, Loops: c.Loops,
		PST: c.PST, SplitDom: c.SplitDom, Seed: c.Seed,
		DeltaPatched: c.DeltaPatched, DeltaFull: c.DeltaFull,
	}
}

// Functions returns the program's function names in definition order.
func (p *Program) Functions() []string {
	return append([]string(nil), p.prog.Order...)
}

// PlacementCost returns, without mutating the program, the modeled
// dynamic overhead of a strategy's placement for one function under
// the machine's jump edge cost model (on the default machine, the
// paper's unit-cost model). Useful for comparing strategies cheaply.
// For a placement with no jump blocks (EntryExit always qualifies)
// the model is exact: summed over all functions it equals the
// save/restore cost a Run with the profiling arguments measures.
func (p *Program) PlacementCost(funcName string, s Strategy) (int64, error) {
	f := p.prog.Func(funcName)
	if f == nil {
		return 0, fmt.Errorf("spillopt: no function %q", funcName)
	}
	if !p.allocated && len(f.UsedCalleeSaved) == 0 {
		return 0, fmt.Errorf("spillopt: %s not allocated", funcName)
	}
	if p.allocated {
		// UseLayout reclassifies edge kinds; the jump edge cost model
		// must price the aligned layout, not the parse-order one.
		p.ensureAligned()
	}
	sets, err := strategy.ComputeCachedFor(f, computeStrategy(s), p.cache.For(f), p.mach)
	if err != nil {
		return 0, err
	}
	return core.TotalCost(core.MachineModel{Desc: p.mach, ChargeJumps: true}, sets), nil
}

// FunctionReport is one function's spill-code cost report: the static
// instruction counts the compiler inserted and the modeled dynamic
// overhead those instructions execute under the recorded profile,
// split by class and priced with the pipeline's machine. For a
// placement without jump blocks the modeled numbers are exact — they
// equal what a Run with the profiling arguments measures.
type FunctionReport struct {
	Function string `json:"function"`

	// Static inserted-instruction counts.
	SaveInstrs      int `json:"save_instrs"`
	RestoreInstrs   int `json:"restore_instrs"`
	SpillInstrs     int `json:"spill_instrs"`
	JumpBlockInstrs int `json:"jump_block_instrs"`

	// Modeled dynamic executions by class.
	Saves       int64 `json:"saves"`
	Restores    int64 `json:"restores"`
	SpillLoads  int64 `json:"spill_loads"`
	SpillStores int64 `json:"spill_stores"`
	JumpJumps   int64 `json:"jump_jumps"`

	// Overhead is the total modeled dynamic overhead executions; Cost
	// prices them with the machine's cost surface (equal on the
	// default unit-cost machine).
	Overhead int64 `json:"overhead"`
	Cost     int64 `json:"cost"`
}

// Report returns one FunctionReport per function in definition order.
// It requires Allocate (spill code exists only after allocation);
// called after Place it includes the placement's save/restore code and
// jump blocks.
func (p *Program) Report() ([]FunctionReport, error) {
	if !p.allocated {
		return nil, fmt.Errorf("spillopt: Allocate before Report")
	}
	out := make([]FunctionReport, 0, len(p.prog.Order))
	for _, f := range p.prog.FuncsInOrder() {
		o := core.Breakdown(f)
		r := FunctionReport{
			Function:    f.Name,
			Saves:       o.Saves,
			Restores:    o.Restores,
			SpillLoads:  o.SpillLoads,
			SpillStores: o.SpillStores,
			JumpJumps:   o.JumpBlockJmps,
			Overhead:    o.Total(),
			Cost:        o.Cost(p.mach.Costs),
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpSave:
					r.SaveInstrs++
				case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpRestore:
					r.RestoreInstrs++
				case in.Flags&ir.FlagJumpBlock != 0:
					r.JumpBlockInstrs++
				case in.Flags&ir.FlagSpill != 0:
					r.SpillInstrs++
				}
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Run executes the program under callee-saved convention enforcement
// and returns the measured result. It requires placement to have run
// (or no procedure to use callee-saved registers). Under UseTiering
// the first Run executes the full tiered pipeline and leaves the
// program placed; later Runs execute the tier-1 program directly.
func (p *Program) Run(args ...int64) (*Result, error) {
	if p.tierPending {
		return p.runTiered(args)
	}
	m := vm.New(p.prog, vm.Config{Machine: p.mach, Engine: p.eng, MaxSteps: p.MaxSteps})
	v, err := m.Run(args...)
	if err != nil {
		return nil, err
	}
	st := m.Stats
	return &Result{
		Value:          v,
		Instrs:         st.Instrs,
		Overhead:       st.Overhead(),
		Cost:           st.WeightedOverhead(p.mach.Costs),
		SpillLoads:     st.SpillLoads,
		SpillStores:    st.SpillStores,
		Saves:          st.Saves,
		Restores:       st.Restores,
		JumpBlockJumps: st.JumpBlockJmps,
	}, nil
}

// runTiered executes the deferred tiered pipeline: tier 0 on a
// statically placed clone under edge profiling, re-align + re-place
// with the measured weights at the boundary, tier 1 on the result with
// the remaining budget. The merged two-tier counters become the
// Result; TierReport exposes the boundary details.
func (p *Program) runTiered(args []int64) (*Result, error) {
	res, err := tier.Run(p.prog, tier.Config{
		Machine:     p.mach,
		Strategy:    computeStrategy(p.tierStrategy),
		Quantum:     p.tierQuantum,
		MaxSteps:    p.MaxSteps,
		Parallelism: p.Parallelism,
		Cache:       p.cache,
		Engine:      p.eng,
	}, args...)
	if res != nil {
		// Even on a step-limit halt the program was re-placed; the
		// pipeline state must reflect the mutation.
		p.tierRes = res
		p.tierPending = false
		p.placed = true
	}
	if err != nil {
		return nil, err
	}
	st := res.Stats
	return &Result{
		Value:          res.Value,
		Instrs:         st.Instrs,
		Overhead:       st.Overhead(),
		Cost:           st.WeightedOverhead(p.mach.Costs),
		SpillLoads:     st.SpillLoads,
		SpillStores:    st.SpillStores,
		Saves:          st.Saves,
		Restores:       st.Restores,
		JumpBlockJumps: st.JumpBlockJmps,
	}, nil
}

// TierReport describes the last tiered Run: whether the quantum
// expired (a tier boundary happened), how many functions the
// measured-weight alignment reordered, how many were re-placed, and
// the per-tier instruction counts. Nil before the tiered Run.
type TierReport struct {
	Boundary    bool  `json:"boundary"`
	Realigned   int   `json:"realigned"`
	Replaced    int   `json:"replaced"`
	Tier0Instrs int64 `json:"tier0_instrs"`
	Tier1Instrs int64 `json:"tier1_instrs"`
}

// TierReport returns the last tiered Run's boundary details, or nil if
// no tiered Run happened.
func (p *Program) TierReport() *TierReport {
	if p.tierRes == nil {
		return nil
	}
	return &TierReport{
		Boundary:    p.tierRes.Boundary,
		Realigned:   p.tierRes.Realigned,
		Replaced:    p.tierRes.Replaced,
		Tier0Instrs: p.tierRes.Tier0.Instrs,
		Tier1Instrs: p.tierRes.Tier1.Instrs,
	}
}

// Text renders the program in the textual IR format, including any
// inserted spill code and jump blocks.
func (p *Program) Text() string { return irtext.Print(p.prog) }

// DotCFG renders one function's control flow graph in Graphviz DOT
// format, highlighting inserted spill code.
func (p *Program) DotCFG(funcName string) (string, error) {
	f := p.prog.Func(funcName)
	if f == nil {
		return "", fmt.Errorf("spillopt: no function %q", funcName)
	}
	return dot.CFG(f), nil
}

// DotPST renders one function's program structure tree (maximal SESE
// regions with boundary costs) in Graphviz DOT format.
func (p *Program) DotPST(funcName string) (string, error) {
	f := p.prog.Func(funcName)
	if f == nil {
		return "", fmt.Errorf("spillopt: no function %q", funcName)
	}
	t, err := p.cache.For(f).PST()
	if err != nil {
		return "", err
	}
	return dot.PST(f, t), nil
}

// UseEngine selects the VM engine Profile and Run execute on, by name:
// "regcode" (the default) or "tree", the reference interpreter — see
// Engines. The engines are parity-tested to produce identical results
// and counts; the tree interpreter is several times slower.
func (p *Program) UseEngine(name string) error {
	e, err := vm.ParseEngine(name)
	if err != nil {
		return err
	}
	p.eng = e
	return nil
}

// Engines lists the VM engine names UseEngine accepts, in sweep order.
func Engines() []string {
	names := make([]string, len(vm.Engines))
	for i, e := range vm.Engines {
		names[i] = e.String()
	}
	return names
}

// Clone deep-copies the program so several strategies can be compared
// from the same allocation.
func (p *Program) Clone() *Program {
	return &Program{
		prog:         p.prog.Clone(),
		mach:         p.mach,
		cache:        analysis.NewCache(),
		Parallelism:  p.Parallelism,
		eng:          p.eng,
		MaxSteps:     p.MaxSteps,
		tiering:      p.tiering,
		tierQuantum:  p.tierQuantum,
		tierStrategy: p.tierStrategy,
		tierPending:  p.tierPending,
		useLayout:    p.useLayout,
		aligned:      p.aligned,
		allocMachine: p.allocMachine,
		profiled:     p.profiled,
		allocated:    p.allocated,
		placed:       p.placed,
	}
}
