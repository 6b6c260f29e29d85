package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	spillopt "repro"
	"repro/internal/irtext"
	spec "repro/internal/workload"
)

// paperStrategies are the five placements the paper-eval op compares,
// in the facade's declaration order.
var paperStrategies = []spillopt.Strategy{
	spillopt.EntryExit, spillopt.Shrinkwrap, spillopt.ShrinkwrapSeed,
	spillopt.HierarchicalExec, spillopt.HierarchicalJump,
}

// paperProgram is one SPEC stand-in: its text and reference output
// (the stand-ins take argument 0, as in the paper's evaluation).
type paperProgram struct {
	name string
	text string
	ref  reference
}

// paperBench is the paper-eval workload: op i evaluates one SPEC
// stand-in — parse, profile and allocate once, then clone, place, run
// and report under each strategy. The seed fixes the order in which
// the stand-ins are visited; the stand-ins themselves are the paper's.
type paperBench struct {
	noCounters
	progs []paperProgram
}

func setupPaperEval(seed uint64, _ int) (workload, error) {
	b := &paperBench{}
	for _, bp := range spec.SPECInt2000() {
		p := spec.Generate(bp)
		ref, err := referenceRun(p, 0)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", bp.Name, err)
		}
		b.progs = append(b.progs, paperProgram{name: bp.Name, text: irtext.Print(p), ref: ref})
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(b.progs), func(i, j int) { b.progs[i], b.progs[j] = b.progs[j], b.progs[i] })
	// Warm up on the smallest stand-in without counting it. A failure
	// here recurs, and is counted, in the measured run.
	for i := range b.progs {
		if b.progs[i].name == "mcf" {
			b.evaluate(&b.progs[i], nil)
		}
	}
	return b, nil
}

func (b *paperBench) minOps() int        { return len(b.progs) }
func (b *paperBench) maxOps() int        { return maxInt }
func (b *paperBench) inputs() int        { return len(b.progs) }
func (b *paperBench) passLen() int       { return len(b.progs) }
func (b *paperBench) finish() []inputErr { return nil }
func (b *paperBench) close()             {}

func (b *paperBench) op(i int, t *tracer) opResult {
	r := b.evaluate(&b.progs[i%len(b.progs)], t)
	r.input, r.first = i%len(b.progs), i < len(b.progs)
	return r
}

// evaluate runs one stand-in through every strategy. Its spill cost
// is the hierarchical-jump column of the paper's Table 1. A strategy
// that fails does not stop the others.
func (b *paperBench) evaluate(pp *paperProgram, t *tracer) opResult {
	var out opResult
	var p *spillopt.Program
	err := t.span("irtext", func() (err error) { p, err = spillopt.ParseProgram(pp.text); return err })
	if err == nil {
		p.Parallelism = 1
		err = t.span("profile", func() error { return p.Profile(0) })
	}
	if err == nil {
		err = t.span("regalloc", p.Allocate)
	}
	if err != nil {
		out.err = fmt.Errorf("%s: %w", pp.name, err)
		return out
	}
	out.counts = opCounts{irBytes: int64(len(pp.text)), profileInstrs: pp.ref.instrs}
	addAnalysis(&out.counts, p.AnalysisStats())
	var errs []error
	for _, s := range paperStrategies {
		var c *spillopt.Program
		var res *spillopt.Result
		var reports []spillopt.FunctionReport
		_ = t.span("clone", func() error { c = p.Clone(); return nil })
		err := t.span("strategy", func() error { return c.Place(s) })
		if err == nil {
			err = t.span("vm", func() (err error) { res, err = c.Run(0); return err })
		}
		if err == nil {
			err = t.span("core", func() (err error) { reports, err = c.Report(); return err })
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s under %s: %w", pp.name, s, err))
			continue
		}
		if res.Value != pp.ref.value {
			errs = append(errs, fmt.Errorf("%w: %s under %s returned %d, reference %d", errWrongOutput, pp.name, s, res.Value, pp.ref.value))
		}
		if s == spillopt.HierarchicalJump {
			out.counts.spillCost = res.Cost
		}
		out.counts.runInstrs += res.Instrs
		addReports(&out.counts, reports)
		addAnalysis(&out.counts, c.AnalysisStats())
	}
	out.err = errors.Join(errs...)
	return out
}
