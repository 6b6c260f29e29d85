package irtext

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Parse reads a program in the textual IR format. The first function
// is the program's main unless a "main NAME" directive appears.
func Parse(src string) (*ir.Program, error) {
	p := &parser{prog: ir.NewProgram()}
	if err := p.run(src); err != nil {
		return nil, err
	}
	if err := ir.VerifyProgram(p.prog); err != nil {
		return nil, fmt.Errorf("irtext: parsed program invalid: %w", err)
	}
	return p.prog, nil
}

type pendingEdge struct {
	from   *ir.Block
	target string
	weight int64
}

type parser struct {
	prog *ir.Program
	line int

	f       *ir.Func
	cur     *ir.Block
	pending []pendingEdge
	virtMax int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("irtext: line %d: "+format, append([]any{p.line}, args...)...)
}

func (p *parser) run(src string) error {
	for _, raw := range strings.Split(src, "\n") {
		p.line++
		line := raw
		// Strip full-line comments that aren't terminator weights: the
		// '; ' annotations are handled inside instruction parsing, so
		// only '#' comments are stripped here.
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "main "):
			p.prog.Main = strings.TrimSpace(strings.TrimPrefix(line, "main "))
		case strings.HasPrefix(line, "func "):
			if err := p.startFunc(line); err != nil {
				return err
			}
		case line == "}":
			if err := p.endFunc(); err != nil {
				return err
			}
		case strings.HasSuffix(line, ":"):
			if p.f == nil {
				return p.errf("label outside function")
			}
			name := strings.TrimSuffix(line, ":")
			if p.f.BlockByName(name) != nil {
				return p.errf("duplicate block %q", name)
			}
			p.cur = p.f.NewBlock(name)
		default:
			if p.f == nil || p.cur == nil {
				return p.errf("instruction outside block")
			}
			if err := p.instr(line); err != nil {
				return err
			}
		}
	}
	if p.f != nil {
		return p.errf("unexpected end of input inside func %s", p.f.Name)
	}
	return nil
}

func (p *parser) startFunc(line string) error {
	if p.f != nil {
		return p.errf("nested func")
	}
	rest := strings.TrimPrefix(line, "func ")
	open := strings.Index(rest, "(")
	close_ := strings.Index(rest, ")")
	if open < 0 || close_ < open || !strings.HasSuffix(rest, "{") {
		return p.errf("malformed func header %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return p.errf("func missing name")
	}
	p.f = ir.NewFunc(name)
	p.virtMax = 0
	params := strings.TrimSpace(rest[open+1 : close_])
	if params != "" {
		for _, ps := range strings.Split(params, ",") {
			r, err := p.reg(strings.TrimSpace(ps))
			if err != nil {
				return err
			}
			p.f.Params = append(p.f.Params, r)
		}
	}
	tail := strings.TrimSpace(rest[close_+1 : len(rest)-1])
	if tail != "" {
		if !strings.HasPrefix(tail, "entry=") {
			return p.errf("unexpected func annotation %q", tail)
		}
		n, err := strconv.ParseInt(strings.TrimPrefix(tail, "entry="), 10, 64)
		if err != nil {
			return p.errf("bad entry count: %v", err)
		}
		p.f.EntryCount = n
	}
	return nil
}

func (p *parser) endFunc() error {
	if p.f == nil {
		return p.errf("unmatched }")
	}
	// Resolve pending edges now that all blocks exist.
	for _, pe := range p.pending {
		to := p.f.BlockByName(pe.target)
		if to == nil {
			return p.errf("func %s: branch to unknown block %q", p.f.Name, pe.target)
		}
		// Patch terminator targets.
		t := pe.from.Terminator()
		if t != nil {
			if t.Then != nil && t.Then.Name == pe.target && t.Then.Func == nil {
				t.Then = to
			}
			if t.Else != nil && t.Else.Name == pe.target && t.Else.Func == nil {
				t.Else = to
			}
		}
		p.f.AddEdge(pe.from, to, ir.Jump, pe.weight)
	}
	p.pending = nil
	p.f.NumVirt = p.virtMax
	p.f.RenumberBlocks()
	p.f.ClassifyEdges()
	p.prog.Add(p.f)
	p.f, p.cur = nil, nil
	return nil
}

// reg parses rN or vN or _.
func (p *parser) reg(s string) (ir.Reg, error) {
	if s == "_" {
		return ir.NoReg, nil
	}
	if len(s) < 2 {
		return ir.NoReg, p.errf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return ir.NoReg, p.errf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n >= int(ir.VirtBase) {
			return ir.NoReg, p.errf("physical register %q out of range", s)
		}
		return ir.Phys(n), nil
	case 'v':
		if n > math.MaxInt32-int(ir.VirtBase) {
			return ir.NoReg, p.errf("virtual register %q out of range", s)
		}
		if n+1 > p.virtMax {
			p.virtMax = n + 1
		}
		return ir.Virt(n), nil
	}
	return ir.NoReg, p.errf("bad register %q", s)
}

var binOps = map[string]ir.Op{
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul, "div": ir.OpDiv,
	"rem": ir.OpRem, "and": ir.OpAnd, "or": ir.OpOr, "xor": ir.OpXor,
	"shl": ir.OpShl, "shr": ir.OpShr,
	"cmpeq": ir.OpCmpEQ, "cmpne": ir.OpCmpNE, "cmplt": ir.OpCmpLT,
	"cmple": ir.OpCmpLE, "cmpgt": ir.OpCmpGT, "cmpge": ir.OpCmpGE,
}

// instr parses one instruction line.
func (p *parser) instr(line string) error {
	// Flags.
	var flags ir.InstrFlags
	for {
		switch {
		case strings.HasSuffix(line, "!spill"):
			flags |= ir.FlagSpill
			line = strings.TrimSpace(strings.TrimSuffix(line, "!spill"))
			continue
		case strings.HasSuffix(line, "!sr"):
			flags |= ir.FlagSaveRestore
			line = strings.TrimSpace(strings.TrimSuffix(line, "!sr"))
			continue
		case strings.HasSuffix(line, "!jb"):
			flags |= ir.FlagJumpBlock
			line = strings.TrimSpace(strings.TrimSuffix(line, "!jb"))
			continue
		}
		break
	}
	// Terminator weights after ';'.
	var weights []int64
	if i := strings.Index(line, ";"); i >= 0 {
		for _, ws := range strings.Fields(line[i+1:]) {
			w, err := strconv.ParseInt(ws, 10, 64)
			if err != nil {
				return p.errf("bad weight %q", ws)
			}
			weights = append(weights, w)
		}
		line = strings.TrimSpace(line[:i])
	}

	emit := func(in *ir.Instr) {
		in.Flags = flags
		p.cur.Append(in)
	}

	// Destination form: "X = rest".
	if eq := strings.Index(line, " = "); eq >= 0 {
		dstS := strings.TrimSpace(line[:eq])
		rest := strings.TrimSpace(line[eq+3:])
		dst, err := p.reg(dstS)
		if err != nil {
			return err
		}
		op, args := splitOp(rest)
		switch {
		case op == "const":
			n, err := strconv.ParseInt(args, 10, 64)
			if err != nil {
				return p.errf("bad const %q", args)
			}
			emit(&ir.Instr{Op: ir.OpConst, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: n})
		case op == "mov":
			s, err := p.reg(args)
			if err != nil {
				return err
			}
			emit(&ir.Instr{Op: ir.OpMov, Dst: dst, Src1: s, Src2: ir.NoReg})
		case op == "neg" || op == "not":
			s, err := p.reg(args)
			if err != nil {
				return err
			}
			o := ir.OpNeg
			if op == "not" {
				o = ir.OpNot
			}
			emit(&ir.Instr{Op: o, Dst: dst, Src1: s, Src2: ir.NoReg})
		case op == "load":
			base, off, err := p.addr(args)
			if err != nil {
				return err
			}
			emit(&ir.Instr{Op: ir.OpLoad, Dst: dst, Src1: base, Src2: ir.NoReg, Imm: off})
		case op == "spill.ld":
			n, err := strconv.ParseInt(args, 10, 64)
			if err != nil {
				return p.errf("bad slot %q", args)
			}
			if int(n)+1 > p.f.SpillSlots {
				p.f.SpillSlots = int(n) + 1
			}
			emit(&ir.Instr{Op: ir.OpSpillLoad, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: n})
		case op == "restore":
			n, err := strconv.ParseInt(args, 10, 64)
			if err != nil {
				return p.errf("bad slot %q", args)
			}
			if int(n)+1 > p.f.SaveSlots {
				p.f.SaveSlots = int(n) + 1
			}
			emit(&ir.Instr{Op: ir.OpRestore, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: n})
		case op == "call":
			return p.call(dst, args, emit)
		default:
			o, ok := binOps[op]
			if !ok {
				return p.errf("unknown op %q", op)
			}
			parts := strings.Split(args, ",")
			if len(parts) != 2 {
				return p.errf("binary op needs 2 operands: %q", line)
			}
			a, err := p.reg(strings.TrimSpace(parts[0]))
			if err != nil {
				return err
			}
			b, err := p.reg(strings.TrimSpace(parts[1]))
			if err != nil {
				return err
			}
			emit(&ir.Instr{Op: o, Dst: dst, Src1: a, Src2: b})
		}
		return nil
	}

	op, args := splitOp(line)
	switch op {
	case "nop":
		emit(&ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg})
	case "store":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return p.errf("store needs addr, value: %q", line)
		}
		base, off, err := p.addr(strings.TrimSpace(parts[0]))
		if err != nil {
			return err
		}
		v, err := p.reg(strings.TrimSpace(parts[1]))
		if err != nil {
			return err
		}
		emit(&ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, Src1: base, Src2: v, Imm: off})
	case "spill.st", "save":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return p.errf("%s needs slot, reg: %q", op, line)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return p.errf("bad slot %q", parts[0])
		}
		r, err := p.reg(strings.TrimSpace(parts[1]))
		if err != nil {
			return err
		}
		o := ir.OpSpillStore
		if op == "save" {
			o = ir.OpSave
			if int(n)+1 > p.f.SaveSlots {
				p.f.SaveSlots = int(n) + 1
			}
		} else {
			if int(n)+1 > p.f.SpillSlots {
				p.f.SpillSlots = int(n) + 1
			}
		}
		emit(&ir.Instr{Op: o, Dst: ir.NoReg, Src1: r, Src2: ir.NoReg, Imm: n})
	case "call":
		return p.call(ir.NoReg, args, func(in *ir.Instr) {
			in.Flags = flags
			p.cur.Append(in)
		})
	case "ret":
		src := ir.NoReg
		if args != "" {
			r, err := p.reg(args)
			if err != nil {
				return err
			}
			src = r
		}
		emit(&ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Src1: src, Src2: ir.NoReg})
	case "jmp":
		if len(weights) > 1 {
			return p.errf("jmp takes one weight")
		}
		var w int64
		if len(weights) == 1 {
			w = weights[0]
		}
		// Target may be defined later; use a placeholder block header.
		ph := &ir.Block{Name: args}
		emit(&ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Then: ph})
		p.pending = append(p.pending, pendingEdge{from: p.cur, target: args, weight: w})
	case "br":
		parts := strings.Split(args, ",")
		if len(parts) != 3 {
			return p.errf("br needs cond, then, else: %q", line)
		}
		c, err := p.reg(strings.TrimSpace(parts[0]))
		if err != nil {
			return err
		}
		tn := strings.TrimSpace(parts[1])
		en := strings.TrimSpace(parts[2])
		var wt, we int64
		if len(weights) >= 1 {
			wt = weights[0]
		}
		if len(weights) >= 2 {
			we = weights[1]
		}
		emit(&ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Src1: c, Src2: ir.NoReg,
			Then: &ir.Block{Name: tn}, Else: &ir.Block{Name: en}})
		p.pending = append(p.pending,
			pendingEdge{from: p.cur, target: tn, weight: wt},
			pendingEdge{from: p.cur, target: en, weight: we})
	default:
		return p.errf("unknown instruction %q", line)
	}
	return nil
}

// call parses "name(a, b, ...)".
func (p *parser) call(dst ir.Reg, args string, emit func(*ir.Instr)) error {
	open := strings.Index(args, "(")
	if open < 0 || !strings.HasSuffix(args, ")") {
		return p.errf("malformed call %q", args)
	}
	name := strings.TrimSpace(args[:open])
	in := &ir.Instr{Op: ir.OpCall, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Callee: name}
	argList := strings.TrimSpace(args[open+1 : len(args)-1])
	if argList != "" {
		for _, as := range strings.Split(argList, ",") {
			r, err := p.reg(strings.TrimSpace(as))
			if err != nil {
				return err
			}
			in.Args = append(in.Args, r)
		}
	}
	emit(in)
	return nil
}

// addr parses "reg+off" or "reg".
func (p *parser) addr(s string) (ir.Reg, int64, error) {
	if i := strings.Index(s, "+"); i >= 0 {
		r, err := p.reg(strings.TrimSpace(s[:i]))
		if err != nil {
			return ir.NoReg, 0, err
		}
		off, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return ir.NoReg, 0, p.errf("bad offset in %q", s)
		}
		return r, off, nil
	}
	r, err := p.reg(strings.TrimSpace(s))
	return r, 0, err
}

func splitOp(s string) (op, args string) {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}
