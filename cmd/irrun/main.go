// Command irrun executes a textual IR program in the interpreter and
// reports dynamic statistics; with -profile it also prints the edge
// execution counts the placement algorithms consume. With -tier the
// program instead goes through the full tiered pipeline — static
// estimate, allocation, tier 0 under the step quantum, measured
// re-alignment and re-placement at the boundary, tier 1 on the result
// — and the report includes the tier boundary details.
//
// Usage:
//
//	irrun [-arg N] [-profile] [-check] [-engine regcode|tree] prog.ir
//	irrun -tier [-quantum N] [-machine preset] [-alloc-machine] [-engine regcode|tree] [-arg N] prog.ir
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/vm"
)

func main() {
	arg := flag.Int64("arg", 0, "argument passed to main")
	prof := flag.Bool("profile", false, "print per-edge execution counts")
	check := flag.Bool("check", false, "enforce the callee-saved register convention")
	engine := flag.String("engine", "regcode", "execution engine: regcode or tree (the reference interpreter)")
	tierF := flag.Bool("tier", false, "run the tiered pipeline: estimate, allocate, profile tier 0 for -quantum steps, re-place from the measured weights, finish on tier 1")
	quantum := flag.Int64("quantum", 0, "with -tier: tier-0 step quantum (0 = the pipeline default)")
	mach := flag.String("machine", "", "with -tier: machine cost preset the pipeline optimizes (default: the paper's unit-cost machine)")
	allocMachine := flag.Bool("alloc-machine", false, "with -tier: price the allocator's spill choices with the machine's cost surface (UseMachineAllocation)")
	flag.Parse()

	eng, err := vm.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: irrun [flags] prog.ir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *tierF {
		runTiered(string(src), *arg, *quantum, *engine, *mach, *allocMachine)
		return
	}
	if *mach != "" || *allocMachine {
		fatal(fmt.Errorf("-machine and -alloc-machine shape the compile pipeline and require -tier (the untiered path executes the program as written)"))
	}

	prog, err := irtext.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	cfg := vm.Config{CollectEdges: *prof, Engine: eng}
	if *check {
		cfg.Machine = machine.PARISC()
	}
	m := vm.New(prog, cfg)
	var args []int64
	if f := prog.Func(prog.Main); f != nil && len(f.Params) > 0 {
		args = append(args, *arg)
	}
	val, err := m.Run(args...)
	if err != nil {
		fatal(err)
	}

	st := m.Stats
	fmt.Printf("result: %d\n", val)
	fmt.Printf("instructions: %d  loads: %d  stores: %d\n", st.Instrs, st.Loads, st.Stores)
	fmt.Printf("overhead: %d (spill ld/st %d/%d, save/restore %d/%d, jump-block jumps %d)\n",
		st.Overhead(), st.SpillLoads, st.SpillStores, st.Saves, st.Restores, st.JumpBlockJmps)

	names := make([]string, 0, len(st.Calls))
	for n := range st.Calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("calls %-12s %d\n", n, st.Calls[n])
	}

	if *prof {
		for _, f := range prog.FuncsInOrder() {
			fmt.Printf("\nfunc %s:\n", f.Name)
			for _, b := range f.Blocks {
				for _, e := range b.Succs {
					fmt.Printf("  %s -> %s  %d (%v)\n", e.From.Name, e.To.Name, m.EdgeCount[e], kindName(e))
				}
			}
		}
	}
}

// runTiered drives the spillopt facade's tiered pipeline on the raw
// program and reports the merged statistics plus the tier boundary
// details.
func runTiered(src string, arg, quantum int64, engine, mach string, allocMachine bool) {
	p, err := spillopt.ParseProgram(src)
	if err != nil {
		fatal(err)
	}
	if mach != "" {
		if err := p.UseMachine(mach); err != nil {
			fatal(err)
		}
	}
	if allocMachine {
		if err := p.UseMachineAllocation(); err != nil {
			fatal(err)
		}
	}
	if err := p.UseEngine(engine); err != nil {
		fatal(err)
	}
	if err := p.UseTiering(quantum); err != nil {
		fatal(err)
	}
	if err := p.Allocate(); err != nil {
		fatal(err)
	}
	if err := p.Place(spillopt.HierarchicalJump); err != nil {
		fatal(err)
	}
	// Match the untiered path's arity handling: pass -arg only when the
	// entry function takes a parameter.
	raw, err := irtext.Parse(src)
	if err != nil {
		fatal(err)
	}
	var args []int64
	if f := raw.Func(raw.Main); f != nil && len(f.Params) > 0 {
		args = append(args, arg)
	}
	res, err := p.Run(args...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: %d\n", res.Value)
	fmt.Printf("instructions: %d\n", res.Instrs)
	fmt.Printf("overhead: %d cost: %d (spill ld/st %d/%d, save/restore %d/%d, jump-block jumps %d)\n",
		res.Overhead, res.Cost, res.SpillLoads, res.SpillStores, res.Saves, res.Restores, res.JumpBlockJumps)
	if tr := p.TierReport(); tr != nil {
		fmt.Printf("tier: boundary=%v realigned=%d replaced=%d tier0=%d tier1=%d\n",
			tr.Boundary, tr.Realigned, tr.Replaced, tr.Tier0Instrs, tr.Tier1Instrs)
	}
}

func kindName(e *ir.Edge) string {
	if e.Kind == ir.Jump {
		return "jump"
	}
	return "fall"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "irrun: %v\n", err)
	os.Exit(1)
}
