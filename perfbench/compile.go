package main

import (
	"fmt"
	"hash/maphash"

	spillopt "repro"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/vm"
)

// compileCorpus is the compile workload's standard corpus size: half
// irgen.Default() programs, half irgen.Crossover() ones.
const compileCorpus = 256

// compileArg is the argument every generated program is profiled and
// run with.
const compileArg = 5

// compileProgram is one corpus entry: its text, the machine preset it
// compiles for, and the reference outputs.
type compileProgram struct {
	text      string
	crossover bool
	ref       reference
}

// reference is a program's expected output, computed by the tree
// engine on the unallocated program: an engine and a program the
// pipeline under test never produces.
type reference struct {
	value  int64
	instrs int64
}

func referenceRun(p *ir.Program, args ...int64) (reference, error) {
	m := vm.New(p, vm.Config{Engine: vm.EngineTree})
	v, err := m.Run(args...)
	if err != nil {
		return reference{}, err
	}
	return reference{value: v, instrs: m.Stats.Instrs}, nil
}

// corpusSeed spreads a benchmark seed over irgen's seed space so that
// nearby benchmark seeds give unrelated corpora (splitmix64).
func corpusSeed(seed uint64, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generated is a generated program and its canonical text.
type generated struct {
	prog *ir.Program
	text string
}

// generateDistinct generates n programs of one irgen family from
// consecutive seeds, dropping any whose canonical text repeats one
// already drawn (as the service's load generator does).
func generateDistinct(base uint64, n int, cfg irgen.Config, seen textSet) []generated {
	var out []generated
	for seed := base; len(out) < n; seed++ {
		p := irgen.Generate(seed, cfg)
		if text := irtext.Print(p); seen.add(text) {
			out = append(out, generated{p, text})
		}
	}
	return out
}

// textSet remembers program texts by a 64-bit hash, so deduplicating
// thousands of programs does not keep their texts alive.
type textSet struct {
	seed maphash.Seed
	m    map[uint64]bool
}

func newTextSet() textSet { return textSet{seed: maphash.MakeSeed(), m: map[uint64]bool{}} }

// add records text and reports whether it was new.
func (s textSet) add(text string) bool {
	h := maphash.String(s.seed, text)
	if s.m[h] {
		return false
	}
	s.m[h] = true
	return true
}

// compileBench is the compile workload: op i compiles corpus entry
// i mod n end to end — parse, profile, allocate, place, report, run.
type compileBench struct {
	noCounters
	corpus []compileProgram
}

func setupCompile(seed uint64, size int) (workload, error) {
	if size <= 0 {
		size = compileCorpus
	}
	seen := newTextSet()
	defaults := generateDistinct(corpusSeed(seed, 1), (size+1)/2, irgen.Default(), seen)
	crossovers := generateDistinct(corpusSeed(seed, 2), size/2, irgen.Crossover(), seen)
	b := &compileBench{}
	// Interleave the families so any prefix of the op sequence is an
	// even mix.
	for i := 0; i < size; i++ {
		g, cross := defaults[i/2], false
		if i%2 == 1 {
			g, cross = crossovers[i/2], true
		}
		ref, err := referenceRun(g.prog, compileArg)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		b.corpus = append(b.corpus, compileProgram{text: g.text, crossover: cross, ref: ref})
	}
	// Warm up: one untimed pass over a few programs. A failure here
	// recurs, and is counted, in the measured run.
	for i := 0; i < min(8, len(b.corpus)); i++ {
		b.op(i, nil)
	}
	return b, nil
}

func (b *compileBench) minOps() int        { return len(b.corpus) }
func (b *compileBench) maxOps() int        { return maxInt }
func (b *compileBench) inputs() int        { return len(b.corpus) }
func (b *compileBench) passLen() int       { return len(b.corpus) }
func (b *compileBench) finish() []inputErr { return nil }
func (b *compileBench) close()             {}

func (b *compileBench) op(i int, t *tracer) opResult {
	k := i % len(b.corpus)
	cp := &b.corpus[k]
	out := opResult{input: k, first: i < len(b.corpus)}
	res, reports, stats, err := b.compile(cp, t)
	if err != nil {
		out.err = fmt.Errorf("corpus program %d: %w", k, err)
		return out
	}
	if res.Value != cp.ref.value {
		out.err = fmt.Errorf("%w: corpus program %d returned %d, reference %d", errWrongOutput, k, res.Value, cp.ref.value)
	}
	out.counts = opCounts{
		spillCost:     res.Cost,
		irBytes:       int64(len(cp.text)),
		profileInstrs: cp.ref.instrs,
		runInstrs:     res.Instrs,
	}
	addReports(&out.counts, reports)
	addAnalysis(&out.counts, stats)
	return out
}

// compile runs one program through the whole pipeline with a span
// around each facade stage.
func (b *compileBench) compile(cp *compileProgram, t *tracer) (*spillopt.Result, []spillopt.FunctionReport, spillopt.AnalysisStats, error) {
	var none spillopt.AnalysisStats
	var p *spillopt.Program
	if err := t.span("irtext", func() (err error) { p, err = spillopt.ParseProgram(cp.text); return err }); err != nil {
		return nil, nil, none, err
	}
	p.Parallelism = 1
	if cp.crossover {
		if err := p.UseMachine("deep-pipeline"); err != nil {
			return nil, nil, none, err
		}
		if err := p.UseMachineAllocation(); err != nil {
			return nil, nil, none, err
		}
	}
	if err := t.span("profile", func() error { return p.Profile(compileArg) }); err != nil {
		return nil, nil, none, err
	}
	if err := t.span("regalloc", p.Allocate); err != nil {
		return nil, nil, none, err
	}
	if err := t.span("strategy", func() error { return p.Place(spillopt.HierarchicalJump) }); err != nil {
		return nil, nil, none, err
	}
	var reports []spillopt.FunctionReport
	if err := t.span("core", func() (err error) { reports, err = p.Report(); return err }); err != nil {
		return nil, nil, none, err
	}
	var res *spillopt.Result
	if err := t.span("vm", func() (err error) { res, err = p.Run(compileArg); return err }); err != nil {
		return nil, nil, none, err
	}
	return res, reports, p.AnalysisStats(), nil
}

// addReports adds the static inserted-instruction counts of a
// placement's function reports.
func addReports(c *opCounts, reports []spillopt.FunctionReport) {
	for _, r := range reports {
		c.spillInstrs += int64(r.SpillInstrs)
		c.saveRestoreInstrs += int64(r.SaveInstrs + r.RestoreInstrs)
		c.jumpBlockInstrs += int64(r.JumpBlockInstrs)
	}
}

// addAnalysis adds a program's analysis-layer build counters.
func addAnalysis(c *opCounts, s spillopt.AnalysisStats) {
	c.builds += int64(s.Liveness + s.Dom + s.Loops + s.PST + s.Seed)
	c.splitDom += int64(s.SplitDom)
	c.deltaFull += int64(s.DeltaFull)
}

const maxInt = int(^uint(0) >> 1)

// noCounters is embedded by workloads with no state or counters of
// their own to reset between passes or read after the measured run.
type noCounters struct{}

func (noCounters) beginPass(*tracer)                 {}
func (noCounters) endRun(*tracer, map[string]metric) {}
