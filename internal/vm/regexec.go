package vm

// regexec.go is the regcode engine's dispatch loop (see regcode.go for
// the compilation model). The hot loop charges the step budget once
// per straight-line quantum and performs zero per-instruction
// accounting; every operand access is a single index into the
// invocation's flat register bank. When a quantum might cross the
// remaining budget, execution switches to rcareful, a per-instruction
// interpreter that reproduces the tree engine's halt accounting
// exactly — entering it guarantees the run ends inside that quantum,
// so the careful path never needs call, return, or branch dispatch.
//
// The bank's physical prefix is a copy of the VM's global register
// file: copied in at entry, copied back out at returns and at every
// error raised in this frame, and exchanged around calls. Frames whose
// errors merely propagate from a callee do not copy out — the callee
// already left the authoritative values in v.phys.

import (
	"fmt"

	"repro/internal/ir"
)

// rcArena hands out frame banks from chunked backing arrays with
// LIFO mark/release, so steady-state execution allocates nothing.
// Handed-out banks are not zeroed; the caller initializes the physical
// prefix by copy and clears the rest.
//
// The first chunk holds first words — New sizes it from the program's
// largest bank, so a shallow run of a small program reserves only a
// few frames' worth — and each later chunk doubles the one before, so
// deep recursion still costs only logarithmically many chunks.
type rcArena struct {
	chunks  [][]int64
	ci, off int
	first   int
}

// rcChunkWords caps the first chunk of the frame arena.
const rcChunkWords = 1 << 12

func (a *rcArena) alloc(n int) []int64 {
	for {
		if a.ci == len(a.chunks) {
			sz := a.first
			if k := len(a.chunks); k > 0 {
				sz = 2 * len(a.chunks[k-1])
			}
			a.chunks = append(a.chunks, make([]int64, max(sz, n)))
		}
		if ch := a.chunks[a.ci]; a.off+n <= len(ch) {
			s := ch[a.off : a.off+n]
			a.off += n
			return s
		}
		a.ci, a.off = a.ci+1, 0
	}
}

func (a *rcArena) mark() (int, int)    { return a.ci, a.off }
func (a *rcArena) release(ci, off int) { a.ci, a.off = ci, off }

func (v *VM) runRegcode(args []int64) (int64, error) {
	c := v.code
	if c.main < 0 {
		return 0, fmt.Errorf("vm: main function %q not found", v.prog.Main)
	}
	if v.callDense == nil {
		v.callDense = make([]int64, len(c.funcs))
	}
	if v.cfg.CollectEdges && v.edgeDense == nil {
		v.edgeDense = make([]int64, len(c.edges))
	}
	val, err := v.rexec(c.main, args, 0)
	v.flushRegDense()
	return val, err
}

// flushRegDense materializes the dense call and edge counters into the
// public map-based Stats.Calls and EdgeCount, preserving the tree
// engine's observable shape (only invoked functions and traversed
// edges appear as keys), then resets them so repeated Runs accumulate.
func (v *VM) flushRegDense() {
	c := v.code
	for i, n := range v.callDense {
		if n != 0 {
			v.Stats.Calls[c.funcs[i].name] += n
			v.callDense[i] = 0
		}
	}
	if v.edgeDense != nil {
		for i, n := range v.edgeDense {
			if n != 0 {
				v.EdgeCount[c.edges[i]] += n
				v.edgeDense[i] = 0
			}
		}
	}
}

// flushSeg folds a dispatch segment's locally accumulated counters
// into the VM. Taking the counters by value (rather than closing over
// them) keeps them in registers inside the dispatch loop.
func (v *VM) flushSeg(n, loads, stores int64) {
	v.steps += n
	v.Stats.Instrs += n
	v.Stats.Loads += loads
	v.Stats.Stores += stores
}

// rleave releases an invocation's arena frame and convention snapshot.
func (v *VM) rleave(mc, moff, snapBase int) {
	v.arena.release(mc, moff)
	if snapBase >= 0 {
		v.snap = v.snap[:snapBase]
	}
}

// rbin evaluates a fused binary operation (rConstBin's inner opcode
// space: every ir two-source ALU op including compares).
func rbin(op ir.Op, x, y int64) int64 {
	switch op {
	case ir.OpAdd:
		return x + y
	case ir.OpSub:
		return x - y
	case ir.OpMul:
		return x * y
	case ir.OpDiv:
		if y != 0 {
			return x / y
		}
	case ir.OpRem:
		if y != 0 {
			return x % y
		}
	case ir.OpAnd:
		return x & y
	case ir.OpOr:
		return x | y
	case ir.OpXor:
		return x ^ y
	case ir.OpShl:
		return x << uint(y&63)
	case ir.OpShr:
		return x >> uint(y&63)
	case ir.OpCmpEQ:
		return b2i(x == y)
	case ir.OpCmpNE:
		return b2i(x != y)
	case ir.OpCmpLT:
		return b2i(x < y)
	case ir.OpCmpLE:
		return b2i(x <= y)
	case ir.OpCmpGT:
		return b2i(x > y)
	case ir.OpCmpGE:
		return b2i(x >= y)
	}
	return 0
}

// rcmp evaluates the compare selected by a fused opcode's offset from
// its EQ variant.
func rcmp(rel ir.Op, x, y int64) int64 {
	switch rel {
	case 0:
		return b2i(x == y)
	case 1:
		return b2i(x != y)
	case 2:
		return b2i(x < y)
	case 3:
		return b2i(x <= y)
	case 4:
		return b2i(x > y)
	}
	return b2i(x >= y)
}

// constOperands resolves a const-feeding fused form to the operand
// pair: 0 = other•K, 1 = K•other, 2 = K•K. The other-operand register
// is read lazily because form 2 (const feeds both sources) has no
// other operand and the compiler stores -1 in the register field.
func constOperands(form int32, bank []int64, a int32, k int64) (int64, int64) {
	switch form {
	case 0:
		return bank[a], k
	case 1:
		return k, bank[a]
	}
	return k, k
}

// rexec runs one function invocation to completion.
func (v *VM) rexec(fi int32, args []int64, depth int) (int64, error) {
	c := v.code
	fc := c.funcs[fi]
	if depth > maxCallDepth {
		return 0, fmt.Errorf("vm: call depth exceeded in %s", fc.name)
	}
	if len(args) != len(fc.params) {
		return 0, fmt.Errorf("vm: %s called with %d args, want %d", fc.name, len(args), len(fc.params))
	}
	v.callDense[fi]++

	mc, moff := v.arena.mark()
	bank := v.arena.alloc(fc.bankLen)
	pl := fc.physLen
	copy(bank, v.phys[:pl])
	clear(bank[pl:])
	for i, p := range fc.params {
		bank[p] = args[i]
	}
	snapBase := -1
	if v.csPhys != nil {
		snapBase = len(v.snap)
		v.snap = append(v.snap, bank[v.csFrom:v.csTo]...)
	}

	ins := fc.ins
	edges := v.edgeDense
	heap := v.heap
	pc := int(fc.entry)

	var n, loads, stores int64 // flushed at calls, returns, and errors
	var cond int64             // fused compare-branch condition, see fusedBr
	budget := v.cfg.MaxSteps - v.steps
	if q := int64(ins[pc].qlen); n+q > budget {
		goto careful
	} else {
		n += q
	}

	for {
		in := &ins[pc]
		if in.ov != ovNone {
			switch in.ov {
			case ovSpillLoad:
				v.Stats.SpillLoads++
			case ovSpillStore:
				v.Stats.SpillStores++
			case ovSave:
				v.Stats.Saves++
			case ovRestore:
				v.Stats.Restores++
			case ovJumpBlock:
				v.Stats.JumpBlockJmps++
			}
		}

		switch in.op {
		case ir.OpNop:
		case ir.OpConst:
			bank[in.dst] = in.imm
		case ir.OpMov:
			bank[in.dst] = bank[in.a]
		case ir.OpAdd:
			bank[in.dst] = bank[in.a] + bank[in.b]
		case ir.OpSub:
			bank[in.dst] = bank[in.a] - bank[in.b]
		case ir.OpMul:
			bank[in.dst] = bank[in.a] * bank[in.b]
		case ir.OpDiv:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] / d
			}
		case ir.OpRem:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] % d
			}
		case ir.OpAnd:
			bank[in.dst] = bank[in.a] & bank[in.b]
		case ir.OpOr:
			bank[in.dst] = bank[in.a] | bank[in.b]
		case ir.OpXor:
			bank[in.dst] = bank[in.a] ^ bank[in.b]
		case ir.OpShl:
			bank[in.dst] = bank[in.a] << uint(bank[in.b]&63)
		case ir.OpShr:
			bank[in.dst] = bank[in.a] >> uint(bank[in.b]&63)
		case ir.OpNeg:
			bank[in.dst] = -bank[in.a]
		case ir.OpNot:
			bank[in.dst] = ^bank[in.a]
		case ir.OpCmpEQ:
			bank[in.dst] = b2i(bank[in.a] == bank[in.b])
		case ir.OpCmpNE:
			bank[in.dst] = b2i(bank[in.a] != bank[in.b])
		case ir.OpCmpLT:
			bank[in.dst] = b2i(bank[in.a] < bank[in.b])
		case ir.OpCmpLE:
			bank[in.dst] = b2i(bank[in.a] <= bank[in.b])
		case ir.OpCmpGT:
			bank[in.dst] = b2i(bank[in.a] > bank[in.b])
		case ir.OpCmpGE:
			bank[in.dst] = b2i(bank[in.a] >= bank[in.b])
		case ir.OpLoad:
			loads++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				v.flushSeg(n-int64(in.rem), loads, stores)
				copy(v.phys[:pl], bank[:pl])
				v.rleave(mc, moff, snapBase)
				return 0, fmt.Errorf("vm: %s: load out of bounds at %d", fc.name, addr)
			}
			bank[in.dst] = heap[addr]
		case ir.OpStore:
			stores++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				v.flushSeg(n-int64(in.rem), loads, stores)
				copy(v.phys[:pl], bank[:pl])
				v.rleave(mc, moff, snapBase)
				return 0, fmt.Errorf("vm: %s: store out of bounds at %d", fc.name, addr)
			}
			heap[addr] = bank[in.b]
		case ir.OpSpillLoad:
			loads++
			bank[in.dst] = bank[in.imm]
		case ir.OpSpillStore:
			stores++
			bank[in.imm] = bank[in.a]
		case ir.OpSave:
			stores++
			bank[in.imm] = bank[in.a]
		case ir.OpRestore:
			loads++
			bank[in.dst] = bank[in.imm]
		case ir.OpCall:
			cs := &fc.calls[in.imm]
			if cs.callee < 0 {
				v.flushSeg(n, loads, stores)
				copy(v.phys[:pl], bank[:pl])
				v.rleave(mc, moff, snapBase)
				return 0, fmt.Errorf("vm: %s calls undefined %q", fc.name, cs.name)
			}
			ab := len(v.argScratch)
			for _, a := range cs.args {
				v.argScratch = append(v.argScratch, bank[a])
			}
			v.flushSeg(n, loads, stores)
			n, loads, stores = 0, 0, 0
			copy(v.phys[:pl], bank[:pl])
			r, err := v.rexec(cs.callee, v.argScratch[ab:], depth+1)
			v.argScratch = v.argScratch[:ab]
			if err != nil {
				// The erroring frame copied the authoritative register
				// values out already; propagate without clobbering them.
				v.rleave(mc, moff, snapBase)
				return 0, err
			}
			copy(bank[:pl], v.phys[:pl])
			budget = v.cfg.MaxSteps - v.steps
			if in.dst >= 0 {
				bank[in.dst] = r
			}
			pc++
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case ir.OpRet:
			var rv int64
			if in.a >= 0 {
				rv = bank[in.a]
			}
			v.flushSeg(n, loads, stores)
			copy(v.phys[:pl], bank[:pl])
			if snapBase >= 0 {
				prev := v.snap[snapBase:]
				cur := v.phys[v.csFrom:v.csTo]
				for i := range cur {
					if cur[i] != prev[i] {
						err := fmt.Errorf("vm: %s violated callee-saved convention: %v changed from %d to %d",
							fc.name, v.csRegs[i], prev[i], cur[i])
						v.rleave(mc, moff, snapBase)
						return 0, err
					}
				}
			}
			v.rleave(mc, moff, snapBase)
			return rv, nil
		case ir.OpBr:
			if bank[in.a] != 0 {
				if edges != nil {
					if e := int32(uint32(in.ex >> 32)); e >= 0 {
						edges[e]++
					}
				}
				pc = int(in.t1)
			} else {
				if edges != nil {
					if e := int32(uint32(in.ex)); e >= 0 {
						edges[e]++
					}
				}
				pc = int(in.t2)
			}
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case ir.OpJmp:
			if edges != nil {
				if e := int32(in.ex); e >= 0 {
					edges[e]++
				}
			}
			pc = int(in.t1)
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case rCmpEQBr:
			cond = b2i(bank[in.a] == bank[in.b])
			goto fusedBr
		case rCmpNEBr:
			cond = b2i(bank[in.a] != bank[in.b])
			goto fusedBr
		case rCmpLTBr:
			cond = b2i(bank[in.a] < bank[in.b])
			goto fusedBr
		case rCmpLEBr:
			cond = b2i(bank[in.a] <= bank[in.b])
			goto fusedBr
		case rCmpGTBr:
			cond = b2i(bank[in.a] > bank[in.b])
			goto fusedBr
		case rCmpGEBr:
			cond = b2i(bank[in.a] >= bank[in.b])
			goto fusedBr
		case rConstBin, rConstBinSpillSt, rConstBinSpillStOv:
			bank[in.b] = in.imm
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			var r int64
			switch ir.Op(in.t1) {
			case ir.OpAdd:
				r = x + y
			case ir.OpSub:
				r = x - y
			case ir.OpMul:
				r = x * y
			case ir.OpDiv:
				if y != 0 {
					r = x / y
				}
			case ir.OpRem:
				if y != 0 {
					r = x % y
				}
			case ir.OpAnd:
				r = x & y
			case ir.OpOr:
				r = x | y
			case ir.OpXor:
				r = x ^ y
			case ir.OpShl:
				r = x << uint(y&63)
			case ir.OpShr:
				r = x >> uint(y&63)
			case ir.OpCmpEQ:
				r = b2i(x == y)
			case ir.OpCmpNE:
				r = b2i(x != y)
			case ir.OpCmpLT:
				r = b2i(x < y)
			case ir.OpCmpLE:
				r = b2i(x <= y)
			case ir.OpCmpGT:
				r = b2i(x > y)
			case ir.OpCmpGE:
				r = b2i(x >= y)
			}
			bank[in.dst] = r
			if in.op != rConstBin {
				stores++
				if in.op == rConstBinSpillStOv {
					v.Stats.SpillStores++
				}
				bank[in.c] = r
			}
		case rConstCmpEQBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x == y)
			goto fusedBr
		case rConstCmpNEBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x != y)
			goto fusedBr
		case rConstCmpLTBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x < y)
			goto fusedBr
		case rConstCmpLEBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x <= y)
			goto fusedBr
		case rConstCmpGTBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x > y)
			goto fusedBr
		case rConstCmpGEBr:
			bank[in.b] = in.imm
			x, y := constOperands(in.c, bank, in.a, in.imm)
			cond = b2i(x >= y)
			goto fusedBr
		case rLatchEQ:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] == k2)
			goto fusedBr
		case rLatchNE:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] != k2)
			goto fusedBr
		case rLatchLT:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] < k2)
			goto fusedBr
		case rLatchLE:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] <= k2)
			goto fusedBr
		case rLatchGT:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] > k2)
			goto fusedBr
		case rLatchGE:
			k1 := int64(int32(uint32(in.imm >> 32)))
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(uint32(in.imm)))
			bank[in.c] = k2
			cond = b2i(bank[in.a] >= k2)
			goto fusedBr
		case rFellOff:
			// Synthetic: qlen never counted it, so n is already right.
			v.flushSeg(n, loads, stores)
			copy(v.phys[:pl], bank[:pl])
			v.rleave(mc, moff, snapBase)
			return 0, fmt.Errorf("vm: %s: block %s fell off the end", fc.name, fc.block(int32(pc)))
		default: // rBadOp and anything unexpected
			v.flushSeg(n, loads, stores)
			copy(v.phys[:pl], bank[:pl])
			v.rleave(mc, moff, snapBase)
			return 0, fmt.Errorf("vm: %s: unknown opcode %v", fc.name, ir.Op(in.a))
		}
		pc++
		continue

		// fusedBr finishes every fused compare-branch superinstruction:
		// store the condition, count the taken edge, branch, and charge
		// the target's quantum.
	fusedBr:
		bank[in.dst] = cond
		if cond != 0 {
			if edges != nil {
				if e := int32(uint32(in.ex >> 32)); e >= 0 {
					edges[e]++
				}
			}
			pc = int(in.t1)
		} else {
			if edges != nil {
				if e := int32(uint32(in.ex)); e >= 0 {
					edges[e]++
				}
			}
			pc = int(in.t2)
		}
		if q := int64(ins[pc].qlen); n+q > budget {
			goto careful
		} else {
			n += q
		}
	}

careful:
	val, err := v.rcareful(fc, bank, pc, n, loads, stores, budget)
	copy(v.phys[:pl], bank[:pl])
	v.rleave(mc, moff, snapBase)
	return val, err
}

// rcareful executes from a quantum head whose full length may not fit
// the remaining step budget, with the tree engine's per-instruction
// accounting. Entering it guarantees the run ends within this quantum:
// straight-line quanta admit no early exit, so the budget runs out (or
// an error fires) at or before the quantum-ending instruction — which
// is why the control-flow opcodes below are unreachable.
func (v *VM) rcareful(fc *rcFunc, bank []int64, pc int, n, loads, stores, budget int64) (int64, error) {
	ins := fc.ins
	heap := v.heap
	halt := func() (int64, error) {
		v.flushSeg(n, loads, stores)
		v.Stats.Instrs--
		return 0, haltErr(fc.name, fc.block(int32(pc)))
	}
	for {
		in := &ins[pc]
		n++
		if n > budget {
			if in.op == rFellOff {
				v.flushSeg(n-1, loads, stores)
				return 0, fmt.Errorf("vm: %s: block %s fell off the end", fc.name, fc.block(int32(pc)))
			}
			return halt()
		}
		if in.ov != ovNone {
			switch in.ov {
			case ovSpillLoad:
				v.Stats.SpillLoads++
			case ovSpillStore:
				v.Stats.SpillStores++
			case ovSave:
				v.Stats.Saves++
			case ovRestore:
				v.Stats.Restores++
			case ovJumpBlock:
				v.Stats.JumpBlockJmps++
			}
		}

		switch in.op {
		case ir.OpNop:
		case ir.OpConst:
			bank[in.dst] = in.imm
		case ir.OpMov:
			bank[in.dst] = bank[in.a]
		case ir.OpAdd:
			bank[in.dst] = bank[in.a] + bank[in.b]
		case ir.OpSub:
			bank[in.dst] = bank[in.a] - bank[in.b]
		case ir.OpMul:
			bank[in.dst] = bank[in.a] * bank[in.b]
		case ir.OpDiv:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] / d
			}
		case ir.OpRem:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] % d
			}
		case ir.OpAnd:
			bank[in.dst] = bank[in.a] & bank[in.b]
		case ir.OpOr:
			bank[in.dst] = bank[in.a] | bank[in.b]
		case ir.OpXor:
			bank[in.dst] = bank[in.a] ^ bank[in.b]
		case ir.OpShl:
			bank[in.dst] = bank[in.a] << uint(bank[in.b]&63)
		case ir.OpShr:
			bank[in.dst] = bank[in.a] >> uint(bank[in.b]&63)
		case ir.OpNeg:
			bank[in.dst] = -bank[in.a]
		case ir.OpNot:
			bank[in.dst] = ^bank[in.a]
		case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			bank[in.dst] = rcmp(in.op-ir.OpCmpEQ, bank[in.a], bank[in.b])
		case ir.OpLoad:
			loads++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				v.flushSeg(n, loads, stores)
				return 0, fmt.Errorf("vm: %s: load out of bounds at %d", fc.name, addr)
			}
			bank[in.dst] = heap[addr]
		case ir.OpStore:
			stores++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				v.flushSeg(n, loads, stores)
				return 0, fmt.Errorf("vm: %s: store out of bounds at %d", fc.name, addr)
			}
			heap[addr] = bank[in.b]
		case ir.OpSpillLoad:
			loads++
			bank[in.dst] = bank[in.imm]
		case ir.OpSpillStore:
			stores++
			bank[in.imm] = bank[in.a]
		case ir.OpSave:
			stores++
			bank[in.imm] = bank[in.a]
		case ir.OpRestore:
			loads++
			bank[in.dst] = bank[in.imm]
		case rCmpEQBr, rCmpNEBr, rCmpLTBr, rCmpLEBr, rCmpGTBr, rCmpGEBr:
			bank[in.dst] = rcmp(in.op-rCmpEQBr, bank[in.a], bank[in.b])
			n++
			if n > budget {
				return halt()
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rConstBin:
			bank[in.b] = in.imm
			n++
			if n > budget {
				return halt()
			}
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			bank[in.dst] = rbin(ir.Op(in.t1), x, y)
		case rConstCmpEQBr, rConstCmpNEBr, rConstCmpLTBr, rConstCmpLEBr, rConstCmpGTBr, rConstCmpGEBr:
			bank[in.b] = in.imm
			n++
			if n > budget {
				return halt()
			}
			x, y := constOperands(in.c, bank, in.a, in.imm)
			bank[in.dst] = rcmp(in.op-rConstCmpEQBr, x, y)
			n++
			if n > budget {
				return halt()
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rLatchEQ, rLatchNE, rLatchLT, rLatchLE, rLatchGT, rLatchGE:
			bank[in.b] = int64(int32(uint32(in.imm >> 32)))
			n++
			if n > budget {
				return halt()
			}
			bank[in.a] += bank[in.b]
			n++
			if n > budget {
				return halt()
			}
			bank[in.c] = int64(int32(uint32(in.imm)))
			n++
			if n > budget {
				return halt()
			}
			bank[in.dst] = rcmp(in.op-rLatchEQ, bank[in.a], bank[in.c])
			n++
			if n > budget {
				return halt()
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rConstBinSpillSt, rConstBinSpillStOv:
			bank[in.b] = in.imm
			n++
			if n > budget {
				return halt()
			}
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			res := rbin(ir.Op(in.t1), x, y)
			bank[in.dst] = res
			n++
			if n > budget {
				return halt()
			}
			stores++
			if in.op == rConstBinSpillStOv {
				v.Stats.SpillStores++
			}
			bank[in.c] = res
		case rFellOff:
			v.flushSeg(n-1, loads, stores)
			return 0, fmt.Errorf("vm: %s: block %s fell off the end", fc.name, fc.block(int32(pc)))
		case ir.OpCall, ir.OpRet, ir.OpBr, ir.OpJmp:
			panic("vm: regcode careful mode reached a quantum boundary")
		default: // rBadOp and anything unexpected
			v.flushSeg(n, loads, stores)
			return 0, fmt.Errorf("vm: %s: unknown opcode %v", fc.name, ir.Op(in.a))
		}
		pc++
	}
}
