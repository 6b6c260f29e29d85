package irtext

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workload"
)

const fibSrc = `
# iterative fibonacci
func fib(v0) entry=1 {
entry:
	v1 = const 0
	v2 = const 1
	v3 = const 0
	jmp loop ; 1
loop:
	v4 = add v1, v2
	v1 = mov v2
	v2 = mov v4
	v5 = const 1
	v3 = add v3, v5
	v6 = cmplt v3, v0
	br v6, loop, exit ; 9 1
exit:
	ret v1
}
`

func TestParseAndRun(t *testing.T) {
	p, err := Parse(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vm.New(p, vm.Config{}).Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("fib(10) = %d, want 55", got)
	}
	f := p.Func("fib")
	if f.EntryCount != 1 {
		t.Errorf("EntryCount = %d, want 1", f.EntryCount)
	}
	loop := f.BlockByName("loop")
	if e := loop.SuccEdge(loop); e == nil || e.Weight != 9 {
		t.Errorf("back edge weight wrong: %v", e)
	}
}

func TestRoundTrip(t *testing.T) {
	p1, err := Parse(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(p1)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if Print(p2) != text {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, Print(p2))
	}
}

func TestRoundTripFigure2(t *testing.T) {
	fig := workload.NewFigure2()
	p := ir.NewProgram()
	p.Add(fig.Func)
	text := Print(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	f := q.Func("figure2")
	if f == nil {
		t.Fatal("figure2 missing after round trip")
	}
	if len(f.Blocks) != 16 {
		t.Errorf("blocks = %d, want 16", len(f.Blocks))
	}
	if f.EntryCount != 100 {
		t.Errorf("EntryCount = %d, want 100", f.EntryCount)
	}
	// Edge weights survive.
	df := f.BlockByName("D").SuccEdge(f.BlockByName("F"))
	if df == nil || df.Weight != 30 {
		t.Errorf("D->F = %v, want weight 30", df)
	}
	if df.Kind != ir.Jump {
		t.Errorf("D->F should classify as jump edge")
	}
	if Print(q) != text {
		t.Error("figure2 round trip not stable")
	}
}

func TestRoundTripFlagsAndMemOps(t *testing.T) {
	src := `
func f(v0) {
entry:
	spill.st 0, v0 !spill
	v1 = spill.ld 0 !spill
	save 0, r12 !sr
	r12 = const 5
	r12 = restore 0 !sr
	store v1+8, v0
	v2 = load v1+8
	v3 = call g(v2)
	jmp next ; 7 !jb
next:
	ret v3
}

func g(v0) {
entry:
	v1 = neg v0
	v2 = not v1
	nop
	ret v2
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func("f")
	if f.SpillSlots != 1 || f.SaveSlots != 1 {
		t.Errorf("slots = %d/%d, want 1/1", f.SpillSlots, f.SaveSlots)
	}
	var flags []ir.InstrFlags
	for _, in := range f.Entry.Instrs {
		flags = append(flags, in.Flags)
	}
	if flags[0] != ir.FlagSpill || flags[1] != ir.FlagSpill {
		t.Error("spill flags lost")
	}
	if flags[2] != ir.FlagSaveRestore || flags[4] != ir.FlagSaveRestore {
		t.Error("save/restore flags lost")
	}
	if f.Entry.Terminator().Flags != ir.FlagJumpBlock {
		t.Error("jump block flag lost")
	}
	text := Print(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Print(q) != text {
		t.Error("flags round trip not stable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"bad op", "func f() {\nentry:\n\tfoo v1\n}"},
		{"bad reg", "func f() {\nentry:\n\tx9 = const 1\n}"},
		{"virtual reg past int32", "func f() {\nentry:\n\tv2147483584 = const 1\n\tret\n}"},
		{"unknown target", "func f() {\nentry:\n\tjmp nowhere\n}"},
		{"label outside func", "entry:\n"},
		{"instr outside block", "func f() {\n\tret\n}"},
		{"nested func", "func f() {\nfunc g() {\n}"},
		{"unclosed func", "func f() {\nentry:\n\tret\n"},
		{"bad const", "func f() {\nentry:\n\tv0 = const abc\n}"},
		{"undefined callee", "func f() {\nentry:\n\tcall nope()\n\tret\n}"},
		{"duplicate block", "func f() {\nentry:\n\tret\nentry:\n\tret\n}"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestMainDirective(t *testing.T) {
	src := `
main g
func f() {
entry:
	ret
}
func g() {
entry:
	ret
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Main != "g" {
		t.Errorf("Main = %q, want g", p.Main)
	}
}

func TestPrintIsParseable(t *testing.T) {
	// A program printed after placement (with save/restore and jump
	// blocks) must still parse.
	src := strings.ReplaceAll(fibSrc, "# iterative fibonacci\n", "")
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(Print(p)); err != nil {
		t.Fatal(err)
	}
}
