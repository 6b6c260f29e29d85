package pst_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pst_golden.txt from the current builder")

const goldenPath = "testdata/pst_golden.txt"

// goldenProgram is one allocated program of the golden corpus.
type goldenProgram struct {
	name string
	prog *ir.Program
}

// goldenCorpus returns every program the golden file covers, profiled
// and register-allocated (placement only touches functions that use
// callee-saved registers): the checked-in testdata programs, the
// eleven SPEC stand-ins, and irgen's Default, Crossover and Hostile
// families at seeds 0-49. A generated program the profiler or the
// allocator rejects is listed as skipped.
func goldenCorpus(t *testing.T) (progs []goldenProgram, skipped []string) {
	t.Helper()
	prepare := func(name string, prog *ir.Program, arg int64) {
		if _, err := profile.Collect(prog, arg); err != nil {
			skipped = append(skipped, name+" profile")
			return
		}
		if _, err := regalloc.AllocateProgram(prog, machine.PARISC()); err != nil {
			skipped = append(skipped, name+" regalloc")
			return
		}
		progs = append(progs, goldenProgram{name, prog})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irtext.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		prepare(filepath.Base(path), prog, 40)
	}
	for _, p := range workload.SPECInt2000() {
		prepare("spec/"+p.Name, workload.Generate(p), 0)
	}
	for _, fam := range []struct {
		name string
		cfg  irgen.Config
	}{
		{"default", irgen.Default()},
		{"crossover", irgen.Crossover()},
		{"hostile", irgen.Hostile()},
	} {
		for seed := uint64(0); seed < 50; seed++ {
			prepare(fmt.Sprintf("%s/%d", fam.name, seed), irgen.Generate(seed, fam.cfg), 40)
		}
	}
	return progs, skipped
}

// writeTree renders a tree as one line per region in Regions order:
// index, depth, parent index (-1 for the root) and Region.String().
func writeTree(sb *strings.Builder, tree *pst.PST) {
	idx := make(map[*pst.Region]int, len(tree.Regions))
	for i, r := range tree.Regions {
		idx[r] = i
	}
	for i, r := range tree.Regions {
		parent := -1
		if r.Parent != nil {
			parent = idx[r.Parent]
		}
		fmt.Fprintf(sb, "%d d=%d p=%d %s\n", i, r.Depth, parent, r)
	}
}

// goldenText builds and renders the golden corpus: a build section
// with every function's tree, a patch section with the tree
// Builder.Patch produces after applying each placed function's
// HierarchicalJump sets through core.ApplyWithDelta, and a
// patch-critical section that splits every critical jump edge.
func goldenText(t *testing.T) string {
	t.Helper()
	progs, skipped := goldenCorpus(t)
	var sb strings.Builder
	sb.WriteString("# PST golden: index d=depth p=parent-index region\n")
	for _, s := range skipped {
		fmt.Fprintf(&sb, "skipped %s\n", s)
	}
	sb.WriteString("## build\n")
	for _, gp := range progs {
		for _, f := range gp.prog.FuncsInOrder() {
			fmt.Fprintf(&sb, "= %s/%s\n", gp.name, f.Name)
			tree, err := pst.Build(f)
			if err != nil {
				fmt.Fprintf(&sb, "error %v\n", err)
				continue
			}
			writeTree(&sb, tree)
		}
	}
	sb.WriteString("## patch\n")
	for _, gp := range progs {
		for _, f := range strategy.NeedsPlacement(gp.prog) {
			sets, err := strategy.Compute(f, strategy.HierarchicalJump, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: compute: %v", gp.name, f.Name, err)
			}
			writePatched(t, &sb, gp.name+"/"+f.Name, f, func() []*core.Set { return sets })
		}
	}
	// Real placements rarely split an edge, so a second pass over a
	// fresh corpus saves one register on every critical jump edge,
	// forcing a split of each.
	sb.WriteString("## patch-critical\n")
	progs, _ = goldenCorpus(t)
	for _, gp := range progs {
		for _, f := range strategy.NeedsPlacement(gp.prog) {
			writePatched(t, &sb, gp.name+"/"+f.Name, f, func() []*core.Set {
				set := &core.Set{Reg: f.UsedCalleeSaved[0]}
				for _, b := range f.Blocks {
					for _, e := range b.Succs {
						if e.Kind == ir.Jump && len(b.Succs) > 1 && len(e.To.Preds) > 1 {
							set.Saves = append(set.Saves, core.Location{Kind: core.OnEdge, Edge: e})
						}
					}
				}
				return []*core.Set{set}
			})
		}
	}
	return sb.String()
}

// writePatched builds f's tree through a Builder, applies the sets
// through core.ApplyWithDelta, patches the tree with the edit's splits
// and renders the patched tree.
func writePatched(t *testing.T, sb *strings.Builder, tag string, f *ir.Func, sets func() []*core.Set) {
	t.Helper()
	b := pst.NewBuilder(f)
	tree, err := b.Build()
	if err != nil {
		fmt.Fprintf(sb, "= %s\nerror %v\n", tag, err)
		return
	}
	delta, err := core.ApplyWithDelta(f, sets())
	if err != nil {
		t.Fatalf("%s: apply: %v", tag, err)
	}
	splits := make([]pst.EdgeSplit, len(delta.Splits))
	for k, s := range delta.Splits {
		splits[k] = pst.EdgeSplit{
			From: s.From, To: s.To, NewBlock: s.NewBlock,
			OldEdge: s.OldEdge, FromEdge: s.FromEdge, ToEdge: s.ToEdge,
		}
	}
	ok := b.Patch(tree, delta.OldID, splits)
	fmt.Fprintf(sb, "= %s splits=%d patched=%v\n", tag, len(splits), ok)
	// With no splits Patch leaves the tree as built; the build section
	// already holds it.
	if ok && len(splits) > 0 {
		writeTree(sb, tree)
	}
}

// TestPSTGolden pins PST construction and edge-split patching — every
// region's boundaries, member blocks in order, depth and parent — to a
// file recorded from a known-good builder, over the testdata programs,
// the SPEC stand-ins and three irgen families. A rewrite of the
// builder's internals must reproduce it byte for byte. Regenerate with
// `go test ./internal/pst -run PSTGolden -update` only when a change to
// the trees is intended.
func TestPSTGolden(t *testing.T) {
	got := goldenText(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "= ") || strings.HasPrefix(wl[i], "## ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("golden line %d (under %q):\n got  %s\n want %s", i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, builder renders %d", len(wl), len(gl))
}
