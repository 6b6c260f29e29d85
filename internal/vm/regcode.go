package vm

// regcode.go lowers an *ir.Program into register-transfer code, the
// input of the default engine's dispatch loop (regexec.go). Each
// function is compiled exactly once, at New:
//
//   - Unified register bank. Each invocation executes against one flat
//     []int64 holding a copy of the referenced physical registers, the
//     virtual registers, the spill slots, and the save slots, in that
//     order. The compiler assigns every operand its direct bank index,
//     so the dispatch loop performs a single slice index per operand —
//     no phys-vs-frame branch, no slot rebasing at run time. The
//     physical prefix is copied in from the VM's global register file
//     at entry and copied back out at every exit (and around calls),
//     preserving the global-register semantics the tree interpreter
//     implements directly. Overhead classes (spill load/store, save,
//     restore, jump-block jump) are precomputed into a byte, branch
//     targets into instruction indices, CFG edges into dense edge
//     indices, and callees into dense function indices.
//
//   - Superinstructions. Adjacent instructions fuse into one dispatch:
//     compare+branch and const+binop pairs, and whole loop-header
//     shapes — the canonical 5-op loop latch (const increment, in-place
//     add, const bound, compare, branch), const+compare+branch triples,
//     and const+binop+spill.st triples. Fusion is safe because branch
//     targets are always block heads, and fused forms execute every
//     constituent's architectural effect literally, in order, through
//     the bank, so aliased operands behave exactly as in the unfused
//     sequence.
//
//   - Quantum-batched step accounting. Instructions are grouped into
//     quanta — maximal straight-line runs ending at a terminator,
//     call, or trap. Each instruction carries the quantum's remaining
//     IR-instruction weight (rem) and each quantum head the total
//     (qlen); the dispatch loop charges a whole quantum against the
//     step budget on entry and touches no counter per instruction.
//     When a quantum cannot fully fit the remaining budget the loop
//     falls back to a per-instruction careful mode that reproduces the
//     tree interpreter's halt accounting exactly (regexec.go).
//
//   - Frames come from a per-VM arena (regexec.go) whose first chunk
//     is sized from the program's largest bank, so steady-state
//     execution allocates nothing and small programs reserve little.
//
// Malformed programs the tree interpreter only rejects when execution
// reaches the bad spot (undefined callees, unknown opcodes, blocks
// without terminators) compile into trap instructions (rBadOp,
// rFellOff) that raise the identical error if — and only if — they
// execute.

import (
	"math"

	"repro/internal/ir"
)

// Regcode opcode space. Plain instructions reuse their ir.Op value;
// the compiled-only forms (traps, fusions) follow contiguously so the
// dispatch switch covers a dense range and compiles to a single jump
// table instead of a branch tree.
const (
	// Traps, reproducing the tree interpreter's runtime errors for
	// malformed programs lazily.
	rBadOp   ir.Op = ir.OpJmp + 1 + iota // unknown opcode (original in .a)
	rFellOff                             // block without terminator
	// Compare feeding the block's conditional branch (pair fusion):
	// dst/a/b from the compare, t1/t2 targets, ex = packed edges.
	rCmpEQBr
	rCmpNEBr
	rCmpLTBr
	rCmpLEBr
	rCmpGTBr
	rCmpGEBr
	// Constant materialized straight into a binary operation:
	// b = const register, imm = constant, dst/a from the binop,
	// t1 = inner opcode, t2 = operand form (0: a•K, 1: K•a, 2: K•K).
	rConstBin
	// const + compare + branch: the constant is materialized, the
	// compare consumes it per the form in .c (0: x•K, 1: K•x, 2: K•K),
	// and the branch dispatches on the result. dst = cmp result,
	// a = other operand, b = const register, imm = constant,
	// t1/t2 = targets, ex = packed edge indices.
	rConstCmpEQBr
	rConstCmpNEBr
	rConstCmpLTBr
	rConstCmpLEBr
	rConstCmpGTBr
	rConstCmpGEBr
	// The canonical 5-op loop latch:
	//	b = const K1; a = add a, b; c = const K2; dst = cmp a, c;
	//	br dst, t1, t2
	// imm packs K1 (high 32) and K2 (low 32), ex = packed edges.
	rLatchEQ
	rLatchNE
	rLatchLT
	rLatchLE
	rLatchGT
	rLatchGE
	// const + binop + spill.st: b = const imm; dst = t1<op,form t2> a;
	// bank[c] = dst. The Ov variant's store carries the spill flag and
	// bumps Stats.SpillStores when the third constituent executes.
	rConstBinSpillSt
	rConstBinSpillStOv
)

// rFusedCmpBr, fusedConstCmpBr, and fusedLatch map a compare opcode to
// its fused pair / triple / latch form.
func rFusedCmpBr(op ir.Op) ir.Op     { return rCmpEQBr + (op - ir.OpCmpEQ) }
func fusedConstCmpBr(op ir.Op) ir.Op { return rConstCmpEQBr + (op - ir.OpCmpEQ) }
func fusedLatch(op ir.Op) ir.Op      { return rLatchEQ + (op - ir.OpCmpEQ) }

// Overhead classes, precomputed from (Op, Flags) with exactly the
// tree interpreter's attribution rules.
const (
	ovNone uint8 = iota
	ovSpillLoad
	ovSpillStore
	ovSave
	ovRestore
	ovJumpBlock
)

func ovClass(in *ir.Instr) uint8 {
	switch {
	case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillLoad:
		return ovSpillLoad
	case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillStore:
		return ovSpillStore
	case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpSave:
		return ovSave
	case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpRestore:
		return ovRestore
	case in.Flags&ir.FlagJumpBlock != 0:
		return ovJumpBlock
	}
	return ovNone
}

// packEdges packs two dense edge indices (-1 = edge absent) into one
// word for a conditional branch: then-edge high, else-edge low.
func packEdges(e1, e2 int32) int64 {
	return int64(uint64(uint32(e1))<<32 | uint64(uint32(e2)))
}

// packI32 packs two int32-range constants into one imm, k1 high.
func packI32(k1, k2 int64) int64 {
	return int64(uint64(uint32(int32(k1)))<<32 | uint64(uint32(int32(k2))))
}

func fitsI32(k int64) bool { return k >= math.MinInt32 && k <= math.MaxInt32 }

// rinst is one pre-decoded register-transfer instruction. All register
// operands are direct bank indices (-1 = absent). Field meaning varies
// by op as documented on the opcode constants; for plain ops:
//
//	const            imm = constant
//	load/store       imm = address offset
//	spill.*/save/restore  imm = bank index of the slot (pre-rebased)
//	call             imm = index into the function's call table
//	br               t1/t2 = then/else instruction indices,
//	                 ex = packed then/else dense edge indices
//	jmp              t1 = target instruction index, ex = edge index
//
// qlen/rem drive the quantum-batched step accounting: rem is the total
// IR-instruction weight strictly after this instruction within its
// quantum (for rolling the upfront charge back on a mid-quantum
// error), and qlen is the weight from this instruction through the
// quantum's end (the full quantum length when read at a quantum head —
// block starts and instructions following a call).
type rinst struct {
	op   ir.Op
	ov   uint8
	dst  int32
	a    int32
	b    int32
	c    int32
	t1   int32
	t2   int32
	qlen int32
	rem  int32
	imm  int64
	ex   int64
}

// rcCall is one call site's side data.
type rcCall struct {
	callee int32  // dense function index, -1 if undefined
	name   string // callee name, for the undefined-function error
	args   []int32
}

// rcFunc is one compiled function.
type rcFunc struct {
	name   string
	ins    []rinst
	entry  int32
	params []int32 // parameter bank indices
	calls  []rcCall

	// The bank layout: [0, physLen) is the physical-register prefix
	// copied in/out of the VM's global file; virtuals, spill slots,
	// and save slots follow. bankLen is the full frame size.
	physLen int
	bankLen int

	// blockOf/blockName attribute an instruction index back to its
	// basic block, for error messages only.
	blockOf   []int32
	blockName []string
}

// block returns the name of the block containing instruction pc.
func (fc *rcFunc) block(pc int32) string {
	if int(pc) < len(fc.blockOf) {
		return fc.blockName[fc.blockOf[pc]]
	}
	return "?"
}

// rcProgram is a compiled program.
type rcProgram struct {
	funcs   []*rcFunc
	main    int32      // dense index of the main function, -1 if absent
	edges   []*ir.Edge // dense edge index -> CFG edge, for profiling
	maxBank int        // the largest bankLen, for sizing the frame arena
}

// edgeIndex assigns e a dense index shared across the compiled
// program, or -1 for a branch with no matching CFG edge.
func (c *rcProgram) edgeIndex(e *ir.Edge) int32 {
	if e == nil {
		return -1
	}
	c.edges = append(c.edges, e)
	return int32(len(c.edges)) - 1
}

// compileRegProgram lowers every function. physMin forces the physical
// prefix to cover at least [0, physMin) — the convention checker needs
// the whole callee-saved range resident in every bank, so the VM
// passes its csTo when a machine is configured.
func compileRegProgram(p *ir.Program, physMin int) *rcProgram {
	funcs := p.FuncsInOrder()
	c := &rcProgram{main: -1}
	index := make(map[string]int32, len(funcs))
	for i, f := range funcs {
		index[f.Name] = int32(i)
	}
	if mi, ok := index[p.Main]; ok {
		c.main = mi
	}
	for _, f := range funcs {
		fc := c.compileRegFunc(f, index, physMin)
		c.funcs = append(c.funcs, fc)
		c.maxBank = max(c.maxBank, fc.bankLen)
	}
	return c
}

func (c *rcProgram) compileRegFunc(f *ir.Func, index map[string]int32, physMin int) *rcFunc {
	fc := &rcFunc{name: f.Name}
	cap := f.Instrs() + len(f.Blocks)
	fc.ins = make([]rinst, 0, cap)
	fc.blockOf = make([]int32, 0, cap)

	// Pass 1: size the bank exactly, so frames never grow mid-run. The
	// physical prefix covers the registers the function (or the
	// convention checker) can touch. Virtual space covers only the
	// referenced virtuals — after register allocation every operand is
	// physical and the virtual area collapses to nothing, however high
	// f.NumVirt grew during compilation. Declared slot counts are
	// trusted but grown over any out-of-range slot reference
	// (hand-built programs may reference slots they never declared;
	// the tree interpreter grows frames lazily for those).
	physLen, virtSize := physMin, 0
	track := func(r ir.Reg) {
		if r.IsVirt() {
			if n := r.VirtNum() + 1; n > virtSize {
				virtSize = n
			}
		} else if r.IsPhys() {
			if n := r.PhysNum() + 1; n > physLen {
				physLen = n
			}
		}
	}
	for _, r := range f.Params {
		track(r)
	}
	spillSlots, saveSlots := f.SpillSlots, f.SaveSlots
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			track(in.Dst)
			track(in.Src1)
			track(in.Src2)
			for _, a := range in.Args {
				track(a)
			}
			switch in.Op {
			case ir.OpSpillLoad, ir.OpSpillStore:
				if n := int(in.Imm) + 1; n > spillSlots {
					spillSlots = n
				}
			case ir.OpSave, ir.OpRestore:
				if n := int(in.Imm) + 1; n > saveSlots {
					saveSlots = n
				}
			}
		}
	}
	spillBase := int64(physLen + virtSize)
	saveBase := spillBase + int64(spillSlots)
	fc.physLen = physLen
	fc.bankLen = physLen + virtSize + spillSlots + saveSlots

	// mr maps an IR register to its bank index.
	mr := func(r ir.Reg) int32 {
		switch {
		case r.IsPhys():
			return int32(r)
		case r.IsVirt():
			return int32(physLen + r.VirtNum())
		}
		return -1
	}
	for _, r := range f.Params {
		fc.params = append(fc.params, mr(r))
	}

	// Pass 2: emit, fusing greedily (longest pattern first). Branch
	// targets are patched after all block starts are known.
	start := make(map[*ir.Block]int32, len(f.Blocks))
	type patch struct {
		pc int32
		in *ir.Instr
		b  *ir.Block
	}
	var patches []patch
	for _, b := range f.Blocks {
		start[b] = int32(len(fc.ins))
		bi := int32(len(fc.blockName))
		fc.blockName = append(fc.blockName, b.Name)
		emit := func(d rinst) {
			fc.ins = append(fc.ins, d)
			fc.blockOf = append(fc.blockOf, bi)
		}
		plain := func(in *ir.Instr) bool {
			return ovClass(in) == ovNone && in.Dst.IsValid()
		}
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]

			// Loop latch: const; in-place add; const; cmp; br.
			if i+4 < len(b.Instrs) && in.Op == ir.OpConst && plain(in) && fitsI32(in.Imm) {
				add, c2, cmp, br := b.Instrs[i+1], b.Instrs[i+2], b.Instrs[i+3], b.Instrs[i+4]
				if add.Op == ir.OpAdd && plain(add) && add.Dst == add.Src1 && add.Src2 == in.Dst &&
					c2.Op == ir.OpConst && plain(c2) && fitsI32(c2.Imm) &&
					cmp.Op.IsCompare() && plain(cmp) && cmp.Src1 == add.Dst && cmp.Src2 == c2.Dst &&
					br.Op == ir.OpBr && ovClass(br) == ovNone && br.Src1 == cmp.Dst {
					patches = append(patches, patch{pc: int32(len(fc.ins)), in: br, b: b})
					emit(rinst{op: fusedLatch(cmp.Op),
						dst: mr(cmp.Dst), a: mr(add.Dst), b: mr(in.Dst), c: mr(c2.Dst),
						imm: packI32(in.Imm, c2.Imm)})
					i += 4
					continue
				}
			}

			// const + compare + branch.
			if i+2 < len(b.Instrs) && in.Op == ir.OpConst && plain(in) {
				cmp, br := b.Instrs[i+1], b.Instrs[i+2]
				if cmp.Op.IsCompare() && plain(cmp) &&
					br.Op == ir.OpBr && ovClass(br) == ovNone && br.Src1 == cmp.Dst {
					form, other := constForm(in.Dst, cmp.Src1, cmp.Src2)
					if form >= 0 {
						patches = append(patches, patch{pc: int32(len(fc.ins)), in: br, b: b})
						emit(rinst{op: fusedConstCmpBr(cmp.Op),
							dst: mr(cmp.Dst), a: mr(other), b: mr(in.Dst), c: form,
							imm: in.Imm})
						i += 2
						continue
					}
				}
			}

			// const + binop + spill.st.
			if i+2 < len(b.Instrs) && in.Op == ir.OpConst && plain(in) {
				bin, st := b.Instrs[i+1], b.Instrs[i+2]
				stOv := ovClass(st)
				if bin.Op.IsBinary() && plain(bin) &&
					st.Op == ir.OpSpillStore && (stOv == ovNone || stOv == ovSpillStore) &&
					st.Src1 == bin.Dst && st.Imm >= 0 && spillBase+st.Imm <= math.MaxInt32 {
					form, other := constForm(in.Dst, bin.Src1, bin.Src2)
					if form >= 0 {
						op := rConstBinSpillSt
						if stOv == ovSpillStore {
							op = rConstBinSpillStOv
						}
						emit(rinst{op: op,
							dst: mr(bin.Dst), a: mr(other), b: mr(in.Dst),
							c:  int32(spillBase + st.Imm),
							t1: int32(bin.Op), t2: form, imm: in.Imm})
						i += 2
						continue
					}
				}
			}

			// Pair fusions: compare + branch, const + binop.
			if ovClass(in) == ovNone && i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if ovClass(next) == ovNone && in.Dst.IsValid() {
					if in.Op.IsCompare() && next.Op == ir.OpBr && next.Src1 == in.Dst {
						patches = append(patches, patch{pc: int32(len(fc.ins)), in: next, b: b})
						emit(rinst{op: rFusedCmpBr(in.Op),
							dst: mr(in.Dst), a: mr(in.Src1), b: mr(in.Src2)})
						i++
						continue
					}
					if in.Op == ir.OpConst && next.Op.IsBinary() && next.Dst.IsValid() {
						form, other := constForm(in.Dst, next.Src1, next.Src2)
						if form >= 0 {
							emit(rinst{op: rConstBin,
								dst: mr(next.Dst), a: mr(other), b: mr(in.Dst),
								imm: in.Imm, t1: int32(next.Op), t2: form})
							i++
							continue
						}
					}
				}
			}

			d := rinst{op: in.Op, ov: ovClass(in),
				dst: mr(in.Dst), a: mr(in.Src1), b: mr(in.Src2),
				imm: in.Imm, t1: -1, t2: -1}
			switch {
			case !in.Op.Valid():
				emit(rinst{op: rBadOp, a: int32(in.Op)})
				continue
			case in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore:
				d.imm = spillBase + in.Imm
				if in.Imm < 0 {
					d.imm = -1 // panics on execution, like the tree engine
				}
			case in.Op == ir.OpSave || in.Op == ir.OpRestore:
				d.imm = saveBase + in.Imm
				if in.Imm < 0 {
					d.imm = -1
				}
			case in.Op == ir.OpCall:
				args := make([]int32, len(in.Args))
				for i, a := range in.Args {
					args[i] = mr(a)
				}
				callee := int32(-1)
				if ci, ok := index[in.Callee]; ok {
					callee = ci
				}
				d.imm = int64(len(fc.calls))
				fc.calls = append(fc.calls, rcCall{callee: callee, name: in.Callee, args: args})
			case in.Op == ir.OpBr || in.Op == ir.OpJmp:
				patches = append(patches, patch{pc: int32(len(fc.ins)), in: in, b: b})
			}
			emit(d)
		}
		// A block without a terminator runs off its end; the trap
		// reproduces the tree interpreter's error without counting an
		// extra executed instruction.
		emit(rinst{op: rFellOff})
	}
	if len(fc.ins) == 0 || f.Entry == nil {
		fc.ins = append(fc.ins, rinst{op: rFellOff})
		fc.blockOf = append(fc.blockOf, int32(len(fc.blockName)))
		fc.blockName = append(fc.blockName, "?")
		fc.entry = int32(len(fc.ins)) - 1
	} else {
		fc.entry = start[f.Entry]
	}

	for _, pt := range patches {
		d := &fc.ins[pt.pc]
		switch pt.in.Op {
		case ir.OpBr:
			t1, ok1 := start[pt.in.Then]
			t2, ok2 := start[pt.in.Else]
			if !ok1 || !ok2 {
				// Target outside the function: the tree interpreter
				// crashes on this; trap with an error instead.
				*d = rinst{op: rBadOp, a: int32(pt.in.Op)}
				continue
			}
			d.t1, d.t2 = t1, t2
			d.ex = packEdges(c.edgeIndex(pt.b.SuccEdge(pt.in.Then)),
				c.edgeIndex(pt.b.SuccEdge(pt.in.Else)))
		case ir.OpJmp:
			t1, ok := start[pt.in.Then]
			if !ok {
				*d = rinst{op: rBadOp, a: int32(pt.in.Op)}
				continue
			}
			d.t1 = t1
			d.ex = int64(c.edgeIndex(pt.b.SuccEdge(pt.in.Then)))
		}
	}

	// Pass 3: segment into quanta and store the accounting weights.
	// Runs after patching because a patch can replace a fused branch
	// with a trap, changing its weight.
	for i := 0; i < len(fc.ins); {
		j := i
		var total int32
		for {
			total += rweight(fc.ins[j].op)
			if rquantumEnd(fc.ins[j].op) || j == len(fc.ins)-1 {
				break
			}
			j++
		}
		var cum int32
		for k := i; k <= j; k++ {
			w := rweight(fc.ins[k].op)
			cum += w
			fc.ins[k].rem = total - cum
			fc.ins[k].qlen = total - cum + w
		}
		i = j + 1
	}
	return fc
}

// constForm classifies how a const feeds a two-source consumer:
// 0 = other•const, 1 = const•other, 2 = const•const, -1 = no feed.
func constForm(cdst, src1, src2 ir.Reg) (int32, ir.Reg) {
	switch {
	case src1 == cdst && src2 == cdst:
		return 2, ir.NoReg
	case src2 == cdst:
		return 0, src1
	case src1 == cdst:
		return 1, src2
	}
	return -1, ir.NoReg
}

// rweight is an instruction's IR-instruction count for step
// accounting: fused forms charge every constituent, traps charge like
// the instruction they reproduce (rBadOp executes-then-errors, so 1;
// rFellOff is synthetic, so 0).
func rweight(op ir.Op) int32 {
	switch {
	case op == rFellOff:
		return 0
	case op >= rLatchEQ && op <= rLatchGE:
		return 5
	case op >= rConstCmpEQBr && op <= rConstCmpGEBr:
		return 3
	case op == rConstBinSpillSt || op == rConstBinSpillStOv:
		return 3
	case op >= rCmpEQBr && op <= rCmpGEBr:
		return 2
	case op == rConstBin:
		return 2
	}
	return 1
}

// rquantumEnd reports whether op terminates a straight-line quantum:
// anything that transfers control, flushes counters, or errors.
func rquantumEnd(op ir.Op) bool {
	switch op {
	case ir.OpCall, ir.OpRet, ir.OpBr, ir.OpJmp, rBadOp, rFellOff:
		return true
	}
	return (op >= rCmpEQBr && op <= rCmpGEBr) ||
		(op >= rConstCmpEQBr && op <= rConstCmpGEBr) ||
		(op >= rLatchEQ && op <= rLatchGE)
}
