package ir

// Op is an instruction opcode.
type Op uint8

// Opcodes. Arithmetic and comparison ops read Src1/Src2 and write Dst.
// Memory ops address a flat per-program heap through a register plus
// immediate offset; spill and save/restore ops address the current
// frame's spill area by slot number.
const (
	OpNop Op = iota

	// OpConst: Dst = Imm.
	OpConst
	// OpMov: Dst = Src1.
	OpMov

	// Binary arithmetic: Dst = Src1 <op> Src2.
	OpAdd
	OpSub
	OpMul
	OpDiv // rounds toward zero; division by zero yields 0
	OpRem // remainder; by zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Unary: Dst = <op> Src1.
	OpNeg
	OpNot

	// Comparisons: Dst = Src1 <rel> Src2 (0 or 1).
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// OpLoad: Dst = heap[Src1 + Imm].
	OpLoad
	// OpStore: heap[Src1 + Imm] = Src2.
	OpStore

	// OpSpillLoad: Dst = frame.spill[Imm]. Inserted by the register
	// allocator for spilled virtual registers.
	OpSpillLoad
	// OpSpillStore: frame.spill[Imm] = Src1.
	OpSpillStore

	// OpSave: frame.save[Imm] = Src1, where Src1 is a callee-saved
	// physical register. Inserted by spill code placement.
	OpSave
	// OpRestore: Dst = frame.save[Imm], Dst callee-saved physical.
	OpRestore

	// OpCall: call function Callee with Args; result (if any) in Dst.
	OpCall

	// Terminators.
	// OpRet: return Src1 (or nothing when Src1 == NoReg).
	OpRet
	// OpBr: if Src1 != 0 branch to block Then, else to block Else.
	OpBr
	// OpJmp: unconditional transfer to block Then.
	OpJmp

	numOps
)

var opNames = [numOps]string{
	OpNop:        "nop",
	OpConst:      "const",
	OpMov:        "mov",
	OpAdd:        "add",
	OpSub:        "sub",
	OpMul:        "mul",
	OpDiv:        "div",
	OpRem:        "rem",
	OpAnd:        "and",
	OpOr:         "or",
	OpXor:        "xor",
	OpShl:        "shl",
	OpShr:        "shr",
	OpNeg:        "neg",
	OpNot:        "not",
	OpCmpEQ:      "cmpeq",
	OpCmpNE:      "cmpne",
	OpCmpLT:      "cmplt",
	OpCmpLE:      "cmple",
	OpCmpGT:      "cmpgt",
	OpCmpGE:      "cmpge",
	OpLoad:       "load",
	OpStore:      "store",
	OpSpillLoad:  "spill.ld",
	OpSpillStore: "spill.st",
	OpSave:       "save",
	OpRestore:    "restore",
	OpCall:       "call",
	OpRet:        "ret",
	OpBr:         "br",
	OpJmp:        "jmp",
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// Valid reports whether op is one of the defined opcodes. The VM's
// regcode compiler uses it to turn undefined opcode bytes into traps
// rather than misdecoding them.
func (op Op) Valid() bool { return op < numOps }

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpRet || op == OpBr || op == OpJmp
}

// IsBinary reports whether the opcode is a two-source ALU operation.
func (op Op) IsBinary() bool {
	return op >= OpAdd && op <= OpCmpGE && op != OpNeg && op != OpNot
}

// IsUnary reports whether the opcode is a one-source ALU operation.
func (op Op) IsUnary() bool { return op == OpNeg || op == OpNot }

// IsCompare reports whether the opcode is a comparison.
func (op Op) IsCompare() bool { return op >= OpCmpEQ && op <= OpCmpGE }

// IsMemLoad reports whether the opcode performs a memory read at run
// time (heap loads, spill reloads, and callee-saved restores).
func (op Op) IsMemLoad() bool {
	return op == OpLoad || op == OpSpillLoad || op == OpRestore
}

// IsMemStore reports whether the opcode performs a memory write at run
// time (heap stores, spill stores, and callee-saved saves).
func (op Op) IsMemStore() bool {
	return op == OpStore || op == OpSpillStore || op == OpSave
}
