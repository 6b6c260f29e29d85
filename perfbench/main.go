// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the spill placement pipeline for a fixed
// time and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict and its metrics:
//
//	perfbench --workload compile --seed 1 --seconds 10 --trace 0
//
// Workloads (see RECORD.md for why each was chosen):
//
//   - compile: a seeded corpus of generated programs, each compiled
//     end to end through the spillopt facade — the compile-time load.
//   - paper-eval: the paper's evaluation over the eleven SPEC CPU2000
//     stand-ins, every strategy placed and executed — the run-time load.
//   - serve: a closed-loop client of the placement service's HTTP
//     handler, with a seeded mix of cold programs, resubmissions,
//     reordered variants, best-strategy and tiered requests — the only
//     load on decode, caches and encode.
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records in-memory spans around each call the benchmark makes
// into a layer, prints the per-layer breakdown on standard error,
// writes the spans under .bench_build/perfbench-trace/ and reports
// the per-layer metrics. The program under test is not instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// A run sets its workload up at least minSetups times and until
// setupBudget of wall time has been spent, but at most maxSetups
// times. setup_s is the median of the set-ups' process CPU times,
// each scaled to the reference speed by shots of the reference loop
// before and after it. So one slow set-up does not move it, a short
// set-up is repeated more to steady its median, and neither the time
// the machine's other tenants take nor their slowing of this one
// enters it.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
	// setupShots is how many reference-loop shots, by their median,
	// measure the machine's speed before and after a set-up.
	setupShots = 5
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupFuncs maps each workload name to its set-up function. A size of
// 0 selects the workload's standard input size; tests pass small ones.
var setupFuncs = map[string]func(seed uint64, size int) (workload, error){
	"compile":    setupCompile,
	"paper-eval": setupPaperEval,
	"serve":      setupServe,
}

func main() {
	name := flag.String("workload", "", "workload: compile, paper-eval or serve")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	setup, ok := setupFuncs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have compile, paper-eval, serve)\n", *name)
		os.Exit(2)
	}
	res, err := bench(*name, setup, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench sets the workload up several times at its standard input
// size, runs the last set-up for d and builds the result.
func bench(name string, setup func(uint64, int) (workload, error), seed uint64, d time.Duration, traced bool) (*result, error) {
	var w workload
	var setupTimes []float64
	var spent time.Duration
	ref := newRefLoop()
	ref.shot()
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if w != nil {
			w.close()
		}
		// Each set-up starts from a collected heap, so it does not pay
		// for the previous one's garbage.
		runtime.GC()
		before := ref.shots(setupShots)
		start, cpu0 := time.Now(), cpuTime()
		var err error
		if w, err = setup(seed, 0); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		cpu, after := cpuTime()-cpu0, ref.shots(setupShots)
		spent += time.Since(start)
		setupTimes = append(setupTimes, cpu.Seconds()/slowdown(before, after))
	}
	defer w.close()

	r := run(w, d, traced)
	// Attempted and failed count distinct inputs, each checked at least
	// once, so they do not depend on how many ops the run completed.
	// Correct means no output differed from its reference; failed also
	// counts inputs whose op ended in an error instead of an output.
	res := &result{Correct: r.wrong == 0, Attempted: r.inputs, Failed: len(r.failedInputs)}
	if traced {
		res.Metrics = layerMetrics(r)
		printBreakdown(os.Stderr, name, r)
		if err := writeSpans(name, seed, r); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(r, median(setupTimes))
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops, %d failed (failed_ratio %.4f); %d distinct inputs, %d failed\n",
		name, seed, r.ops, r.failed, float64(r.failed)/float64(max(r.ops, 1)), r.inputs, len(r.failedInputs))
	fmt.Fprintf(os.Stderr, "%s seed %d: %.4f CPU ms/op, %.4f at the reference speed; reference shot %.1f µs\n",
		name, seed, msPerOp(r.passCPU, r.pass), msPerOp(r.passRef, r.pass), median(slices.Clone(r.refShots))/1e3)
	return res, nil
}
