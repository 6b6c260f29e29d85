// Package regalloc implements a Chaitin/Briggs style graph-coloring
// register allocator over the toy IR, standing in for the allocator
// the paper substitutes into GCC. It builds an interference graph
// over virtual registers, simplifies with optimistic (Briggs) color
// assignment, spills by a profile-weighted cost/degree heuristic, and
// honors the machine's calling convention: virtual registers live
// across a call may only receive callee-saved registers.
//
// Callee-saved save/restore code is deliberately NOT inserted here:
// that is the post register allocation spill code placement problem
// the rest of the repository studies. The allocator records which
// callee-saved registers an allocation writes in Func.UsedCalleeSaved.
//
// Spill candidates are ranked by a cost/degree heuristic. The cost is
// uniform by default — every def and use occurrence weighs its block's
// execution count, as if spill stores and loads had equal latency —
// which reproduces the paper's allocator. Options.MachineCosts instead
// prices each candidate with the machine's cost surface: spilling a
// web executes one store per def and one load per use, so the priced
// cost is defWeight*StoreCost + useWeight*LoadCost (dual-issue
// discount included). The jump/split penalties of the machine never
// enter this ranking because allocator spill code is always inserted
// inside blocks, adjacent to the def or use it serves — it can never
// force a jump block or split a critical edge; those penalties belong
// to the callee-saved placement layer, whose jump-edge model prices
// them. On a unit-cost machine (the classic preset) the priced cost
// equals the uniform cost integer for integer, so classic machine
// pricing is byte-identical to the default allocator.
//
// The interference graph is dense, the classic Chaitin/Briggs layout:
// virtual register i is node i, per-node facts (degree, def/use cost,
// call crossing, precolor) are slices indexed by i, and adjacency is a
// NumVirt × ⌈NumVirt/64⌉ bit matrix. Because virtual registers start at
// a word boundary of the liveness bit sets, a def's interferences are
// added a word at a time. Simplify keeps a ready bit set of the nodes
// whose degree is below their allowed color count and removes its
// lowest member; degrees only fall, so this is the same "first
// eligible node in register order" rule as a full rescan. Every choice
// breaks ties toward the lowest register, including the neighbor
// spilled when a precolored node's register is taken, so an allocation
// is fully determined by its input.
//
// The matrix is sized by the register numbering, so a function that
// names its virtual registers sparsely (v0, v1000000) is first
// renumbered densely in ascending order; the order, and so every
// tie-break, is kept, and Result reports the function's own names.
// The matrix is still quadratic in the number of registers actually
// used: a round whose graph would exceed MaxNodes nodes fails with
// ErrTooLarge instead of allocating it.
package regalloc

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
)

// Result reports what the allocator did to one function.
type Result struct {
	// Spilled lists virtual registers sent to stack slots, in the
	// order they were spilled.
	Spilled []ir.Reg
	// SpillWebs records the profile-weighted def/use shape of each
	// spilled web at the moment it was chosen, parallel to Spilled.
	// Spilling a web costs one store per weighted def and one load
	// per weighted use, so any machine's spill bill for this
	// allocation is sum(DefWeight*StoreCost + UseWeight*LoadCost).
	SpillWebs []SpillWeb
	// Iterations is the number of build-color rounds.
	Iterations int
	// UsedCalleeSaved mirrors Func.UsedCalleeSaved.
	UsedCalleeSaved []ir.Reg
}

// SpillWeb is the profile-weighted footprint of one spilled web.
type SpillWeb struct {
	Reg       ir.Reg
	DefWeight int64 // sum of block exec counts over the web's defs
	UseWeight int64 // sum of block exec counts over the web's uses
}

// Options tweaks the allocator's spill-choice heuristic.
type Options struct {
	// MachineCosts prices spill candidates with the machine's cost
	// surface (StoreCost per weighted def, LoadCost per weighted use)
	// instead of uniform unit weights. On a unit-cost machine this is
	// byte-identical to the uniform heuristic.
	MachineCosts bool
}

// pricer turns a node's weighted def/use counts into a spill cost.
// The uniform pricer (1,1) reproduces the classic def+use count.
type pricer struct {
	store, load int64
}

func newPricer(m *machine.Desc, opts Options) pricer {
	if opts.MachineCosts {
		return pricer{store: m.Costs.StoreCost(), load: m.Costs.LoadCost()}
	}
	return pricer{store: 1, load: 1}
}

func (p pricer) of(g *graph, i int) int64 {
	return g.defCost[i]*p.store + g.useCost[i]*p.load
}

// maxRounds bounds spill-and-retry iteration; each round strictly
// reduces live range lengths so this is never reached in practice.
const maxRounds = 32

// MaxNodes bounds the interference graph of one allocation round. The
// adjacency matrix takes MaxNodes²/8 bytes (32 MiB) at the limit, about
// 30 times the largest function irgen or the SPEC stand-ins produce.
const MaxNodes = 1 << 14

// ErrTooLarge reports a function whose interference graph would exceed
// MaxNodes nodes.
var ErrTooLarge = errors.New("regalloc: interference graph too large")

// AllocateProgram allocates every function in the program, serially.
func AllocateProgram(p *ir.Program, m *machine.Desc) (map[string]*Result, error) {
	return AllocateProgramParallel(p, m, 1)
}

// AllocateProgramParallel allocates every function across a bounded
// worker pool. Functions are independent — Allocate reads and writes
// only its own *ir.Func — so the result is identical to the serial
// path for any parallelism (<= 0 means GOMAXPROCS).
func AllocateProgramParallel(p *ir.Program, m *machine.Desc, parallelism int) (map[string]*Result, error) {
	return AllocateProgramOpts(p, m, parallelism, Options{})
}

// AllocateProgramOpts is AllocateProgramParallel with explicit
// allocator options.
func AllocateProgramOpts(p *ir.Program, m *machine.Desc, parallelism int, opts Options) (map[string]*Result, error) {
	funcs := p.FuncsInOrder()
	results := make([]*Result, len(funcs))
	err := par.Do(len(funcs), parallelism, func(i int) error {
		r, err := AllocateOpts(funcs[i], m, opts)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(funcs))
	for i, f := range funcs {
		out[f.Name] = results[i]
	}
	return out, nil
}

// Allocate rewrites f in place, replacing every virtual register with
// a physical register and inserting spill code where needed.
func Allocate(f *ir.Func, m *machine.Desc) (*Result, error) {
	return AllocateOpts(f, m, Options{})
}

// AllocateOpts is Allocate with explicit allocator options.
func AllocateOpts(f *ir.Func, m *machine.Desc, opts Options) (*Result, error) {
	if len(f.Params) > len(m.ArgRegs) {
		return nil, fmt.Errorf("regalloc: %s has %d params, machine passes at most %d",
			f.Name, len(f.Params), len(m.ArgRegs))
	}
	names := compactVirts(f)
	lowerParams(f, m)
	rets := lowerReturns(f)
	// precolor is indexed by VirtNum; the spill temps created later
	// lie past its end and are never precolored.
	precolor := make([]ir.Reg, f.NumVirt)
	for i := range precolor {
		precolor[i] = ir.NoReg
	}
	for _, r := range rets {
		precolor[r.VirtNum()] = m.RetReg
	}
	for i, p := range f.Params {
		precolor[p.VirtNum()] = m.ArgRegs[i]
	}

	res := &Result{}
	var noSpill []bool // indexed by VirtNum: spill temps must not respill

	pr := newPricer(m, opts)
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("regalloc: %s did not converge after %d rounds", f.Name, maxRounds)
		}
		if f.NumVirt > MaxNodes {
			return nil, fmt.Errorf("%w: %s has %d virtual registers, limit %d",
				ErrTooLarge, f.Name, f.NumVirt, MaxNodes)
		}
		res.Iterations++
		g := buildGraph(f, precolor)
		colors, spills := color(g, m, noSpill, pr)
		if len(spills) == 0 {
			rewrite(f, colors)
			res.UsedCalleeSaved = recordUsedCalleeSaved(f, m)
			exactSpillSlots(f)
			return res, nil
		}
		for _, v := range spills {
			i := v.VirtNum()
			res.Spilled = append(res.Spilled, names.orig(v))
			res.SpillWebs = append(res.SpillWebs, SpillWeb{Reg: names.orig(v), DefWeight: g.defCost[i], UseWeight: g.useCost[i]})
			noSpill = insertSpillCode(f, v, noSpill)
		}
	}
}

// virtNames maps the allocator's virtual register numbers back to the
// function's own. old[i] is the original number of compact register i;
// registers created after compaction (lowering and spill temporaries)
// follow the original numbering, exactly as NewVirt would have
// numbered them without compaction.
type virtNames struct {
	old     []int // nil when the numbering was left as is
	numVirt int   // f.NumVirt before compaction
}

func (n virtNames) orig(r ir.Reg) ir.Reg {
	if n.old == nil {
		return r
	}
	i := r.VirtNum()
	if i < len(n.old) {
		return ir.Virt(n.old[i])
	}
	return ir.Virt(i - len(n.old) + n.numVirt)
}

// compactVirts renumbers f's virtual registers 0..k-1 in ascending
// order of their original numbers when the numbering is sparse, so the
// graph's slices and matrix grow with the registers f uses rather than
// with the highest name it uses. A function with no more names than
// twice its instruction count (all generated code) is left as it is:
// its matrix is already bounded by its size.
func compactVirts(f *ir.Func) virtNames {
	instrs := 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
	}
	if f.NumVirt <= 2*instrs+len(f.Params)+64 {
		return virtNames{}
	}
	var old []int
	mapRegs(f, func(r ir.Reg) ir.Reg {
		if r.IsVirt() {
			old = append(old, r.VirtNum())
		}
		return r
	})
	slices.Sort(old)
	old = slices.Compact(old)
	mapRegs(f, func(r ir.Reg) ir.Reg {
		if r.IsVirt() {
			i, _ := slices.BinarySearch(old, r.VirtNum())
			return ir.Virt(i)
		}
		return r
	})
	names := virtNames{old: old, numVirt: f.NumVirt}
	f.NumVirt = len(old)
	return names
}

// mapRegs replaces every register operand and parameter r of f with
// fn(r).
func mapRegs(f *ir.Func, fn func(ir.Reg) ir.Reg) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst.IsValid() {
				in.Dst = fn(in.Dst)
			}
			if in.Src1.IsValid() {
				in.Src1 = fn(in.Src1)
			}
			if in.Src2.IsValid() {
				in.Src2 = fn(in.Src2)
			}
			for i, a := range in.Args {
				if a.IsValid() {
					in.Args[i] = fn(a)
				}
			}
		}
	}
	for i, p := range f.Params {
		f.Params[i] = fn(p)
	}
}

// lowerParams pins incoming parameters to the machine's argument
// registers: each param becomes a fresh virtual register that is
// immediately moved into the original parameter virtual at function
// entry, and the fresh virtual is precolored to the argument register.
// This keeps argument passing in caller-saved registers, as real
// conventions do.
func lowerParams(f *ir.Func, m *machine.Desc) {
	for i, old := range f.Params {
		nv := f.NewVirt()
		f.Params[i] = nv
		mv := &ir.Instr{Op: ir.OpMov, Dst: old, Src1: nv, Src2: ir.NoReg}
		// Insert moves in order after any previously inserted ones.
		f.Entry.InsertBefore(i, mv)
	}
}

// lowerReturns moves every returned value into the machine's return
// register through a fresh virtual: `ret v` becomes `t = mov v; ret t`,
// and the caller pins each returned t to RetReg. Without this a return
// value could be allocated to a callee-saved register, which the exit
// restore would clobber.
func lowerReturns(f *ir.Func) []ir.Reg {
	var rets []ir.Reg
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpRet || !t.Src1.IsValid() {
			continue
		}
		nv := f.NewVirt()
		rets = append(rets, nv)
		mv := &ir.Instr{Op: ir.OpMov, Dst: nv, Src1: t.Src1, Src2: ir.NoReg}
		b.InsertBeforeTerminator(mv)
		t.Src1 = nv
	}
	return rets
}

// firstVirtWord is the liveness BitSet word that holds virtual
// register 0. VirtBase is a multiple of 64 (asserted below), so
// virtual register i is bit i%64 of word firstVirtWord+i/64, and a row
// of the adjacency matrix lines up word for word with a liveness set.
const firstVirtWord = int(ir.VirtBase / 64)

var _ = [1]int{}[ir.VirtBase%64] // VirtBase must be word-aligned

// graph is the interference graph over a function's virtual
// registers. Node i is ir.Virt(i); per-node facts are slices indexed
// by i, and adjacency is an n × words bit matrix whose row i holds the
// neighbors of node i. A virtual that no instruction references has
// no node: its exists bit is clear and nothing else reads its entries.
type graph struct {
	n, words int
	adj      []uint64 // row i is adj[i*words : (i+1)*words]
	exists   []uint64 // bit set of nodes
	crossing []uint64 // live across a call: callee-saved only
	degree   []int
	defCost  []int64  // profile-weighted def count
	useCost  []int64  // profile-weighted use count
	pre      []ir.Reg // precolored register or NoReg
}

func newGraph(n int) *graph {
	words := (n + 63) / 64
	g := &graph{
		n:        n,
		words:    words,
		adj:      make([]uint64, n*words),
		exists:   make([]uint64, words),
		crossing: make([]uint64, words),
		degree:   make([]int, n),
		defCost:  make([]int64, n),
		useCost:  make([]int64, n),
		pre:      make([]ir.Reg, n),
	}
	for i := range g.pre {
		g.pre[i] = ir.NoReg
	}
	return g
}

func (g *graph) row(i int) []uint64 {
	return g.adj[i*g.words : (i+1)*g.words : (i+1)*g.words]
}

func (g *graph) addEdge(a, b int) {
	setBit(g.exists, a)
	setBit(g.exists, b)
	if a == b || hasBit(g.row(a), b) {
		return
	}
	setBit(g.row(a), b)
	setBit(g.row(b), a)
	g.degree[a]++
	g.degree[b]++
}

// interfere adds an edge from node d to every virtual register in
// live that d does not already neighbor, a word at a time.
func (g *graph) interfere(d int, live *dataflow.BitSet) {
	row := g.row(d)
	for w := range row {
		fresh := live.Word(firstVirtWord+w) &^ row[w]
		if w == d/64 {
			fresh &^= 1 << (uint(d) % 64)
		}
		if fresh == 0 {
			continue
		}
		row[w] |= fresh
		g.degree[d] += bits.OnesCount64(fresh)
		for ; fresh != 0; fresh &= fresh - 1 {
			r := w*64 + bits.TrailingZeros64(fresh)
			setBit(g.row(r), d)
			g.degree[r]++
		}
	}
}

// buildGraph computes liveness and constructs the interference graph
// over virtual registers. precolor is indexed by VirtNum; virtuals past
// its end are not precolored.
func buildGraph(f *ir.Func, precolor []ir.Reg) *graph {
	lv := dataflow.ComputeLiveness(f)
	g := newGraph(f.NumVirt)

	// Every referenced virtual register is a node.
	var buf []ir.Reg
	for _, b := range f.Blocks {
		w := b.ExecCount()
		if w == 0 {
			w = 1
		}
		for _, in := range b.Instrs {
			if d := in.Def(); d.IsVirt() {
				setBit(g.exists, d.VirtNum())
				g.defCost[d.VirtNum()] += w
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u.IsVirt() {
					setBit(g.exists, u.VirtNum())
					g.useCost[u.VirtNum()] += w
				}
			}
		}
	}

	// Parameters are all simultaneously live at entry.
	for i := 0; i < len(f.Params); i++ {
		for j := i + 1; j < len(f.Params); j++ {
			g.addEdge(f.Params[i].VirtNum(), f.Params[j].VirtNum())
		}
	}

	// Backward scan per block: def interferes with everything live
	// after it; calls make crossing virtuals callee-saved-only.
	live := dataflow.NewBitSet(dataflow.Universe(f))
	for _, b := range f.Blocks {
		live.CopyFrom(lv.Out[b.ID])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			d := in.Def()
			if d.IsVirt() {
				g.interfere(d.VirtNum(), live)
			}
			if d.IsValid() {
				live.Clear(int(d))
			}
			if in.Op == ir.OpCall {
				// Everything live across the call (after the def is
				// removed) must avoid caller-saved registers.
				for w := range g.crossing {
					g.crossing[w] |= live.Word(firstVirtWord + w)
				}
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u.IsValid() {
					live.Set(int(u))
				}
			}
		}
	}

	copy(g.pre, precolor)
	return g
}

// allowedCount returns how many colors node i could take in principle.
func allowedCount(g *graph, i int, m *machine.Desc) int {
	if g.pre[i] != ir.NoReg {
		return 1
	}
	if hasBit(g.crossing, i) {
		return m.NumCalleeSaved()
	}
	return m.NumRegs
}

// color runs simplify/select with optimistic coloring. It returns the
// chosen colors indexed by VirtNum (NoReg where uncolored), or the
// virtual registers to spill when coloring failed.
func color(g *graph, m *machine.Desc, noSpill []bool, pr pricer) ([]ir.Reg, []ir.Reg) {
	// Simplify: repeatedly remove the lowest-numbered node with degree
	// < allowed; if none qualifies, optimistically remove the cheapest
	// (potential spill). ready holds exactly the remaining nodes with
	// degree < allowed: degrees only fall, so a node joins ready at
	// most once and leaves it only when removed.
	degree := append([]int(nil), g.degree...)
	allowed := make([]int, g.n)
	removed := make([]uint64, g.words)
	ready := make([]uint64, g.words)
	count := 0
	for w, x := range g.exists {
		for ; x != 0; x &= x - 1 {
			r := w*64 + bits.TrailingZeros64(x)
			allowed[r] = allowedCount(g, r, m)
			if degree[r] < allowed[r] {
				setBit(ready, r)
			}
			count++
		}
	}
	stack := make([]int, 0, count)
	for len(stack) < count {
		r := firstBit(ready)
		if r < 0 {
			r = spillCandidate(g, degree, removed, noSpill, pr)
		}
		setBit(removed, r)
		clearBit(ready, r)
		for w, x := range g.row(r) {
			for x &^= removed[w]; x != 0; x &= x - 1 {
				a := w*64 + bits.TrailingZeros64(x)
				degree[a]--
				if degree[a] < allowed[a] {
					setBit(ready, a)
				}
			}
		}
		stack = append(stack, r)
	}

	// Select in reverse order. Caller-saved registers are numbered
	// below callee-saved ones, so "prefer caller-saved (cheapest), then
	// callee-saved" is the lowest free register.
	colors := make([]ir.Reg, g.n)
	for i := range colors {
		colors[i] = ir.NoReg
	}
	var spills []ir.Reg
	allRegs := lowMask(m.NumRegs)
	calleeRegs := allRegs &^ lowMask(m.CalleeSavedFrom)
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		var inUse uint64
		for w, x := range g.row(r) {
			for ; x != 0; x &= x - 1 {
				if c := colors[w*64+bits.TrailingZeros64(x)]; c != ir.NoReg {
					inUse |= 1 << uint(c)
				}
			}
		}
		if pre := g.pre[r]; pre != ir.NoReg {
			if inUse&(1<<uint(pre)) != 0 {
				// A precolored conflict means a neighbor must spill,
				// not the precolored node.
				spills = append(spills, pickNeighborSpill(g, r, noSpill, pr))
				continue
			}
			colors[r] = pre
			continue
		}
		free := allRegs &^ inUse
		if hasBit(g.crossing, r) {
			free &= calleeRegs
		}
		if free == 0 {
			spills = append(spills, ir.Virt(r))
			continue
		}
		colors[r] = ir.Phys(bits.TrailingZeros64(free))
	}
	return colors, dedupRegs(spills, g.n)
}

// spillCandidate picks the node to push optimistically when no
// remaining node is trivially colorable: the lowest cost/degree ratio
// among spillable remaining nodes (the lowest register on a tie), or
// the lowest remaining node when none is spillable.
func spillCandidate(g *graph, degree []int, removed []uint64, noSpill []bool, pr pricer) int {
	best, first := -1, -1
	var bestScore float64
	for w, x := range g.exists {
		for x &^= removed[w]; x != 0; x &= x - 1 {
			r := w*64 + bits.TrailingZeros64(x)
			if first < 0 {
				first = r
			}
			if isNoSpill(noSpill, r) || g.pre[r] != ir.NoReg {
				continue
			}
			d := degree[r]
			if d == 0 {
				d = 1
			}
			score := float64(pr.of(g, r)) / float64(d)
			if best < 0 || score < bestScore {
				best, bestScore = r, score
			}
		}
	}
	if best < 0 {
		// Only unspillable nodes left; push any.
		return first
	}
	return best
}

// pickNeighborSpill selects the cheapest already-colored or pending
// neighbor of precolored node v to spill; a cost tie goes to the
// lowest register.
func pickNeighborSpill(g *graph, v int, noSpill []bool, pr pricer) ir.Reg {
	best := -1
	var bestCost int64
	for w, x := range g.row(v) {
		for ; x != 0; x &= x - 1 {
			a := w*64 + bits.TrailingZeros64(x)
			if g.pre[a] != ir.NoReg || isNoSpill(noSpill, a) {
				continue
			}
			if c := pr.of(g, a); best < 0 || c < bestCost {
				best, bestCost = a, c
			}
		}
	}
	if best < 0 {
		// Nothing reasonable; fall back to the precolored node itself
		// (will error upstream if it recurs).
		return ir.Virt(v)
	}
	return ir.Virt(best)
}

// dedupRegs drops repeated virtual registers below Virt(n), keeping
// first occurrences in order.
func dedupRegs(rs []ir.Reg, n int) []ir.Reg {
	seen := make([]uint64, (n+63)/64)
	out := rs[:0]
	for _, r := range rs {
		if i := r.VirtNum(); !hasBit(seen, i) {
			setBit(seen, i)
			out = append(out, r)
		}
	}
	return out
}

func hasBit(s []uint64, i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func setBit(s []uint64, i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func clearBit(s []uint64, i int)    { s[i/64] &^= 1 << (uint(i) % 64) }

// firstBit returns the lowest element of s, or -1 when s is empty.
func firstBit(s []uint64) int {
	for w, x := range s {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// lowMask returns the mask of registers [0, n); n may be 64.
func lowMask(n int) uint64 { return 1<<uint(n) - 1 }

// isNoSpill reports whether virtual i is a spill temporary.
func isNoSpill(noSpill []bool, i int) bool { return i < len(noSpill) && noSpill[i] }

// exactSpillSlots resizes f.SpillSlots to exactly cover the spill
// slots the final code references, so the VM's fixed-size frames never
// carry dead slots (and can never need to grow mid-run).
func exactSpillSlots(f *ir.Func) {
	f.SpillSlots = f.MaxFrameSlot(ir.OpSpillLoad, ir.OpSpillStore) + 1
}

// insertSpillCode assigns v a stack slot and rewrites every use and
// def through fresh short-lived temporaries, marking each in noSpill
// (indexed by VirtNum) and returning the grown slice.
func insertSpillCode(f *ir.Func, v ir.Reg, noSpill []bool) []bool {
	slot := int64(f.SpillSlots)
	f.SpillSlots++
	var buf []ir.Reg
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			usesV := false
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u == v {
					usesV = true
				}
			}
			if usesV {
				t := f.NewVirt()
				noSpill = markNoSpill(noSpill, t)
				ld := &ir.Instr{Op: ir.OpSpillLoad, Dst: t, Src1: ir.NoReg, Src2: ir.NoReg,
					Imm: slot, Flags: ir.FlagSpill}
				b.InsertBefore(i, ld)
				i++
				replaceUses(b.Instrs[i], v, t)
			}
			if in.Def() == v {
				t := f.NewVirt()
				noSpill = markNoSpill(noSpill, t)
				in.Dst = t
				st := &ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: t, Src2: ir.NoReg,
					Imm: slot, Flags: ir.FlagSpill}
				b.InsertBefore(i+1, st)
				i++
			}
		}
	}
	// Params cannot be spilled this way (they are precolored temps
	// moved at entry), and v should no longer appear anywhere.
	return noSpill
}

// markNoSpill records spill temporary t in noSpill, growing it as
// needed.
func markNoSpill(noSpill []bool, t ir.Reg) []bool {
	i := t.VirtNum()
	if i >= len(noSpill) {
		noSpill = append(noSpill, make([]bool, i+1-len(noSpill))...)
	}
	noSpill[i] = true
	return noSpill
}

func replaceUses(in *ir.Instr, from, to ir.Reg) {
	if in.Src1 == from {
		in.Src1 = to
	}
	if in.Src2 == from {
		in.Src2 = to
	}
	for i, a := range in.Args {
		if a == from {
			in.Args[i] = to
		}
	}
}

// rewrite replaces every virtual register with its color (colors is
// indexed by VirtNum).
func rewrite(f *ir.Func, colors []ir.Reg) {
	mapRegs(f, func(r ir.Reg) ir.Reg {
		if r.IsVirt() {
			if i := r.VirtNum(); i < len(colors) && colors[i] != ir.NoReg {
				return colors[i]
			}
			// Dead virtual never live anywhere: any caller-saved reg
			// would do; keep it deterministic.
			return ir.Phys(0)
		}
		return r
	})
	f.NumVirt = 0
}

// recordUsedCalleeSaved scans the allocated body for callee-saved
// registers that are written and records them on the function.
func recordUsedCalleeSaved(f *ir.Func, m *machine.Desc) []ir.Reg {
	var used uint64 // physical registers are numbered below 64
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.IsPhys() && m.IsCalleeSaved(d) {
				used |= 1 << uint(d)
			}
		}
	}
	var out []ir.Reg
	for ; used != 0; used &= used - 1 {
		out = append(out, ir.Phys(bits.TrailingZeros64(used)))
	}
	f.UsedCalleeSaved = out
	return out
}
