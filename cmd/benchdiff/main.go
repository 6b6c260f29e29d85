// Command benchdiff is the CI benchmark-regression gate: it re-runs
// the standing benchmarks in-process and compares them against the
// committed trajectory records, failing (exit 1) on a regression.
//
//	benchdiff -vm BENCH_vm.json             # engine throughput gate
//	benchdiff -machines BENCH_machines.json # multi-machine sweep gate
//	benchdiff -analysis BENCH_analysis.json # incremental analysis gate
//	benchdiff -serve BENCH_serve.json       # placement service gate
//	benchdiff -tiered BENCH_tiered.json     # tiered re-placement gate
//	benchdiff -crossover BENCH_crossover.json # machine-crossover gate
//	benchdiff -vm ... -machines ... -threshold 15
//	benchdiff -machines ... -inject 20      # self-test: must fail
//	benchdiff -machines ... -write-fresh DIR  # dump the fresh records
//	                                          # (CI failure artifacts)
//
// The VM gate compares the regcode-over-tree speedup ratio (host
// speed cancels) against the committed ratio and its absolute 4.5x
// floor, plus the deterministic per-run instruction counts; the
// machines gate compares the deterministic weighted overheads of every
// (machine preset, strategy) pair and the analysis build counters that
// prove the sweep shares analyses across presets; the analysis gate
// compares the cold-over-incremental re-placement speedup (host speed
// cancels), its absolute 3x floor, and the zero-full-rebuild property
// of the delta patchers; the serve gate re-runs the in-process loadgen
// sweep and compares the cached-over-cold speedup (5x absolute floor),
// the deterministic cache hit counters, and the analysis cache's
// eviction bound; the tiered gate re-runs the static-vs-measured
// re-placement comparison on the hostile suite and compares the
// deterministic per-preset overheads, requiring the best preset's gain
// to clear the absolute floor; the crossover gate re-runs the
// uniform-vs-machine-priced allocation comparison on the crossover
// suite and compares the deterministic per-(benchmark, preset) best
// overheads and winners, requiring at least one benchmark to keep
// flipping its winner across presets. -inject degrades the fresh
// numbers by the given percentage so the CI job can prove the gate
// actually trips; -write-fresh dumps every fresh record (as compared,
// injection included) into a directory for CI failure artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	vmPath := flag.String("vm", "", "committed BENCH_vm.json to gate against")
	machPath := flag.String("machines", "", "committed BENCH_machines.json to gate against")
	analysisPath := flag.String("analysis", "", "committed BENCH_analysis.json to gate against")
	servePath := flag.String("serve", "", "committed BENCH_serve.json to gate against")
	tieredPath := flag.String("tiered", "", "committed BENCH_tiered.json to gate against")
	crossPath := flag.String("crossover", "", "committed BENCH_crossover.json to gate against")
	threshold := flag.Float64("threshold", 15, "allowed regression in percent")
	reps := flag.Int("reps", 1, "VM executions per benchmark per engine for the fresh -vm run")
	jobs := flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
	inject := flag.Float64("inject", 0, "artificially degrade the fresh numbers by this percentage (gate self-test)")
	writeFresh := flag.String("write-fresh", "", "write each gate's fresh record (as compared, -inject included) into this directory, for CI failure artifacts")
	flag.Parse()

	if *vmPath == "" && *machPath == "" && *analysisPath == "" && *servePath == "" && *tieredPath == "" && *crossPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: nothing to compare; pass -vm, -machines, -analysis, -serve, -tiered, and/or -crossover")
		os.Exit(2)
	}
	if *writeFresh != "" {
		if err := os.MkdirAll(*writeFresh, 0o755); err != nil {
			fatal(err)
		}
	}

	var findings []string

	if *vmPath != "" {
		var committed bench.VMBench
		readJSON(*vmPath, &committed)
		fresh, err := bench.BenchVM(workload.SPECInt2000(), *reps)
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectVMRegression(fresh, *inject)
		}
		fmt.Printf("vm: committed regcode-over-tree speedup %.2fx, fresh %.2fx (floor %.1fx)\n",
			committed.Speedup, fresh.Speedup, bench.VMSpeedupFloor)
		dumpFresh(*writeFresh, "BENCH_vm.fresh.json", fresh)
		findings = append(findings, bench.CompareVM(&committed, fresh, *threshold)...)
	}

	if *machPath != "" {
		var committed bench.SweepRecord
		readJSON(*machPath, &committed)
		fresh, err := bench.SweepSuite(*jobs)
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectSweepRegression(fresh, *inject)
		}
		for _, m := range fresh.Machines {
			fmt.Printf("machines: %-14s winner %-14s", m.Name, m.Winner)
			for _, s := range m.Strategies {
				fmt.Printf(" %s=%d", s.Name, s.WeightedOverhead)
			}
			fmt.Println()
		}
		dumpFresh(*writeFresh, "BENCH_machines.fresh.json", fresh)
		findings = append(findings, bench.CompareSweep(&committed, fresh, *threshold)...)
	}

	if *analysisPath != "" {
		var committed bench.AnalysisBench
		readJSON(*analysisPath, &committed)
		fresh, err := bench.BenchAnalysis(workload.SPECInt2000(), *reps)
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectAnalysisRegression(fresh, *inject)
		}
		fmt.Printf("analysis: committed incremental speedup %.2fx, fresh %.2fx (shared %.2fx, rebuild fallbacks %d)\n",
			committed.IncrementalSpeedup, fresh.IncrementalSpeedup, fresh.SharedSpeedup, fresh.Rebuilds)
		dumpFresh(*writeFresh, "BENCH_analysis.fresh.json", fresh)
		findings = append(findings, bench.CompareAnalysis(&committed, fresh, *threshold)...)
	}

	if *servePath != "" {
		var committed bench.ServeBench
		readJSON(*servePath, &committed)
		fresh, err := server.Bench(committed.Distinct, committed.Dups, committed.Workers)
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectServeRegression(fresh, *inject)
		}
		fmt.Printf("serve: committed cached speedup %.2fx, fresh %.2fx (%d requests, program hits %d, function hits %d, analysis len max %d/%d)\n",
			committed.CachedSpeedup, fresh.CachedSpeedup, fresh.Requests,
			fresh.ProgramHits, fresh.FunctionHits, fresh.AnalysisLenMax, fresh.AnalysisBudget)
		dumpFresh(*writeFresh, "BENCH_serve.fresh.json", fresh)
		findings = append(findings, bench.CompareServe(&committed, fresh, *threshold)...)
	}

	if *tieredPath != "" {
		var committed bench.TieredBench
		readJSON(*tieredPath, &committed)
		// The fresh run must cover the committed record's suite: same
		// seeds (benchmark names carry them) and quantum.
		n := len(committed.Benchmarks)
		var base uint64
		if n > 0 {
			if _, err := fmt.Sscanf(committed.Benchmarks[0], "hostile-%d", &base); err != nil {
				fatal(fmt.Errorf("%s: unrecognized benchmark name %q", *tieredPath, committed.Benchmarks[0]))
			}
		}
		fresh, err := bench.BenchTiered(bench.HostileSuite(base, n), committed.Quantum, *reps)
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectTieredRegression(fresh, *inject)
		}
		fmt.Printf("tiered: committed best gain %.3fx, fresh %.3fx (floor %.2fx)\n",
			committed.BestGain, fresh.BestGain, bench.TieredGainFloor)
		for _, m := range fresh.Machines {
			fmt.Printf("tiered: %-14s static=%d tiered=%d gain=%.3fx boundaries=%d\n",
				m.Machine, m.StaticOverhead, m.TieredOverhead, m.Gain, m.Boundaries)
		}
		dumpFresh(*writeFresh, "BENCH_tiered.fresh.json", fresh)
		findings = append(findings, bench.CompareTiered(&committed, fresh, *threshold)...)
	}

	if *crossPath != "" {
		var committed bench.CrossoverRecord
		readJSON(*crossPath, &committed)
		// The fresh run must cover the committed record's suite; the
		// benchmark names carry the seeds.
		n := len(committed.Benchmarks)
		var base uint64
		if n > 0 {
			if _, err := fmt.Sscanf(committed.Benchmarks[0], "crossover-%d", &base); err != nil {
				fatal(fmt.Errorf("%s: unrecognized benchmark name %q", *crossPath, committed.Benchmarks[0]))
			}
		}
		fresh, err := bench.RunCrossover(bench.CrossoverSuite(base, n), nil, bench.Options{Parallelism: *jobs})
		if err != nil {
			fatal(err)
		}
		if *inject > 0 {
			bench.InjectCrossoverRegression(fresh, *inject)
		}
		fmt.Printf("crossover: committed flips %d, fresh %d (of %d benchmarks; at least 1 required)\n",
			committed.Flips, fresh.Flips, len(fresh.Benches))
		for _, b := range fresh.Benches {
			if b.StrategyFlip || b.AllocFlip {
				fmt.Printf("crossover: %-14s flips (strategy=%v alloc=%v)\n", b.Name, b.StrategyFlip, b.AllocFlip)
			}
		}
		dumpFresh(*writeFresh, "BENCH_crossover.fresh.json", fresh)
		findings = append(findings, bench.CompareCrossover(&committed, fresh, *threshold)...)
	}

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok, no regressions")
}

// dumpFresh writes a fresh record into the -write-fresh directory so a
// failed CI gate can upload exactly what it compared.
func dumpFresh(dir, name string, v any) {
	if dir == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
