package bench

// gate.go is the benchmark-regression gate behind cmd/benchdiff: it
// compares a fresh run against the committed BENCH_vm.json /
// BENCH_machines.json records and reports findings the CI job fails
// on. The comparison logic lives here, not in the command, so the
// gate itself is under test — including the proof that an injected
// regression trips it.

import (
	"fmt"
)

// VMSpeedupFloor is the absolute regcode-over-tree throughput ratio
// the gate enforces regardless of the committed record: the compiled
// engine exists to be at least this much faster than the reference.
const VMSpeedupFloor = 4.5

// CompareVM diffs a fresh engine benchmark against the committed
// record. Absolute throughput depends on the host, so the gate
// compares host-independent quantities:
//
//   - the regcode-over-tree speedup ratio must not regress by more
//     than thresholdPct percent below the committed ratio (both
//     engines run on the same host in the same process, so the ratio
//     cancels host speed), and must stay above the absolute
//     VMSpeedupFloor;
//   - per-run dynamic instruction counts must match the committed
//     record exactly — they are deterministic, and a drift means the
//     record is stale (or an engine miscounts) — and every engine must
//     agree with the tree reference, which runs the same programs.
func CompareVM(committed, fresh *VMBench, thresholdPct float64) []string {
	var findings []string
	if committed.Speedup > 0 {
		floor := committed.Speedup * (1 - thresholdPct/100)
		if fresh.Speedup < floor {
			findings = append(findings, fmt.Sprintf(
				"vm: regcode speedup %.2fx regressed more than %.0f%% below committed %.2fx (floor %.2fx)",
				fresh.Speedup, thresholdPct, committed.Speedup, floor))
		}
	}
	if fresh.Speedup < VMSpeedupFloor {
		findings = append(findings, fmt.Sprintf(
			"vm: regcode only %.2fx faster than tree, below the %.1fx floor",
			fresh.Speedup, VMSpeedupFloor))
	}
	if te := findEngine(fresh, "tree"); te != nil && te.Runs > 0 {
		base := te.Instrs / int64(te.Runs)
		for _, fe := range fresh.Engines {
			if fe.Engine == "tree" || fe.Runs == 0 {
				continue
			}
			if fi := fe.Instrs / int64(fe.Runs); fi != base {
				findings = append(findings, fmt.Sprintf(
					"vm: %s executes %d instrs/run but tree executes %d on the same programs — an engine miscounts",
					fe.Engine, fi, base))
			}
		}
	}
	for _, ce := range committed.Engines {
		fe := findEngine(fresh, ce.Engine)
		if fe == nil {
			findings = append(findings, fmt.Sprintf("vm: engine %q missing from fresh run", ce.Engine))
			continue
		}
		if ce.Runs == 0 || fe.Runs == 0 {
			continue
		}
		if ci, fi := ce.Instrs/int64(ce.Runs), fe.Instrs/int64(fe.Runs); ci != fi {
			findings = append(findings, fmt.Sprintf(
				"vm: %s executes %d instrs/run, committed record says %d — regenerate BENCH_vm.json if the suite changed",
				ce.Engine, fi, ci))
		}
	}
	return findings
}

func findEngine(b *VMBench, name string) *EngineBench {
	for i := range b.Engines {
		if b.Engines[i].Engine == name {
			return &b.Engines[i]
		}
	}
	return nil
}

// CompareSweep diffs a fresh multi-machine sweep against the committed
// record. Weighted overheads and modeled costs are deterministic
// counts, so in a healthy tree fresh equals committed exactly; the
// threshold only grants slack for intentional small re-tunings, and it
// cuts both ways — a fresh number more than thresholdPct percent
// *better* than committed is also a finding, because a stale committed
// record would otherwise silently widen the regression budget for the
// next change. Missing machines or strategies, a different benchmark
// suite, and analysis build counters showing per-machine rebuilds are
// findings too.
func CompareSweep(committed, fresh *SweepRecord, thresholdPct float64) []string {
	var findings []string
	if !sameSuite(committed, fresh) {
		findings = append(findings, fmt.Sprintf(
			"machines: committed record covers suite %v (%d functions), fresh sweep %v (%d functions) — regenerate BENCH_machines.json with the standing suite",
			committed.Benchmarks, committed.Functions, fresh.Benchmarks, fresh.Functions))
		return findings
	}
	freshMachines := map[string]*SweepMachineRecord{}
	for i := range fresh.Machines {
		freshMachines[fresh.Machines[i].Name] = &fresh.Machines[i]
	}
	for _, cm := range committed.Machines {
		fm := freshMachines[cm.Name]
		if fm == nil {
			findings = append(findings, fmt.Sprintf("machines: preset %q missing from fresh sweep", cm.Name))
			continue
		}
		freshStrats := map[string]SweepStrategyRecord{}
		for _, fs := range fm.Strategies {
			freshStrats[fs.Name] = fs
		}
		for _, cs := range cm.Strategies {
			fs, ok := freshStrats[cs.Name]
			if !ok {
				findings = append(findings, fmt.Sprintf("machines: %s/%s missing from fresh sweep", cm.Name, cs.Name))
				continue
			}
			where := "machines: " + cm.Name + "/" + cs.Name
			findings = append(findings, compareCount(where, "weighted overhead", cs.WeightedOverhead, fs.WeightedOverhead, thresholdPct)...)
			findings = append(findings, compareCount(where, "modeled cost", cs.Modeled, fs.Modeled, thresholdPct)...)
		}
	}
	// Per-benchmark winners are deterministic; when the committed
	// record carries them (older records predate the field), the fresh
	// sweep must reproduce each benchmark's per-preset winner exactly.
	if len(committed.BenchWinners) > 0 && len(fresh.BenchWinners) == len(committed.BenchWinners) {
		for i, cb := range committed.BenchWinners {
			fb := fresh.BenchWinners[i]
			for preset, cw := range cb.Winners {
				if fw := fb.Winners[preset]; fw != cw {
					findings = append(findings, fmt.Sprintf(
						"machines: %s winner under %s moved from %s to %s — regenerate BENCH_machines.json if intentional",
						cb.Name, preset, cw, fw))
				}
			}
		}
	}
	// The sharing guarantee: a sweep over N machines must not build any
	// analysis more than once per function.
	if n := fresh.Functions; n > 0 {
		b := fresh.Builds
		for _, c := range []struct {
			name  string
			count int
		}{
			{"liveness", b.Liveness}, {"dom", b.Dom}, {"loops", b.Loops},
			{"pst", b.PST}, {"seed", b.Seed},
		} {
			if c.count > n {
				findings = append(findings, fmt.Sprintf(
					"machines: %s built %d times for %d functions — per-machine analysis rebuilds crept in",
					c.name, c.count, n))
			}
		}
	}
	return findings
}

// sameSuite reports whether two sweep records cover the same benchmark
// list and function population — the precondition for comparing their
// totals at all.
func sameSuite(a, b *SweepRecord) bool {
	if a.Functions != b.Functions || len(a.Benchmarks) != len(b.Benchmarks) {
		return false
	}
	for i := range a.Benchmarks {
		if a.Benchmarks[i] != b.Benchmarks[i] {
			return false
		}
	}
	return true
}

// compareCount flags a deterministic counter drifting past the
// threshold in either direction: up is a regression, down means the
// committed record is stale and must be regenerated before it quietly
// raises the regression ceiling.
func compareCount(where, what string, committed, fresh int64, thresholdPct float64) []string {
	switch {
	case float64(fresh) > float64(committed)*(1+thresholdPct/100):
		return []string{fmt.Sprintf("%s %s %d exceeds committed %d by more than %.0f%%",
			where, what, fresh, committed, thresholdPct)}
	case float64(fresh) < float64(committed)*(1-thresholdPct/100):
		return []string{fmt.Sprintf("%s %s %d improved more than %.0f%% below committed %d — regenerate the committed record",
			where, what, fresh, thresholdPct, committed)}
	}
	return nil
}

// CompareAnalysis diffs a fresh analysis-layer benchmark against the
// committed record. Absolute nanoseconds depend on the host, so the
// gate compares host-independent quantities:
//
//   - incremental re-placement must stay at least 3x faster than cold
//     re-placement (the floor the delta layer is built to clear);
//   - the cold-over-incremental speedup must not regress more than
//     thresholdPct percent below the committed ratio (both paths run
//     on the same host in the same process, so host speed cancels);
//   - no function's incremental re-placement may fall back to a full
//     rebuild — that means a placement edit the patchers stopped
//     recognizing.
func CompareAnalysis(committed, fresh *AnalysisBench, thresholdPct float64) []string {
	var findings []string
	if fresh.Rebuilds > 0 {
		findings = append(findings, fmt.Sprintf(
			"analysis: %d incremental re-placements fell back to full rebuilds — ApplyDelta stopped recognizing placement edits",
			fresh.Rebuilds))
	}
	if fresh.IncrementalSpeedup < 3 {
		findings = append(findings, fmt.Sprintf(
			"analysis: incremental re-placement only %.2fx faster than cold, below the 3x floor",
			fresh.IncrementalSpeedup))
	}
	if committed.IncrementalSpeedup > 0 {
		floor := committed.IncrementalSpeedup * (1 - thresholdPct/100)
		if fresh.IncrementalSpeedup < floor {
			findings = append(findings, fmt.Sprintf(
				"analysis: incremental speedup %.2fx regressed more than %.0f%% below committed %.2fx (floor %.2fx)",
				fresh.IncrementalSpeedup, thresholdPct, committed.IncrementalSpeedup, floor))
		}
	}
	cb := make(map[string]int, len(committed.Benchmarks))
	for _, r := range committed.Benchmarks {
		cb[r.Benchmark] = r.Functions
	}
	for _, r := range fresh.Benchmarks {
		if n, ok := cb[r.Benchmark]; !ok {
			findings = append(findings, fmt.Sprintf(
				"analysis: benchmark %q missing from committed record — regenerate BENCH_analysis.json", r.Benchmark))
		} else if n != r.Functions {
			findings = append(findings, fmt.Sprintf(
				"analysis: %s covers %d functions, committed record says %d — regenerate BENCH_analysis.json",
				r.Benchmark, r.Functions, n))
		}
	}
	return findings
}

// TieredGainFloor is the absolute static-over-tiered overhead ratio
// the gate requires the best machine preset to clear: on the hostile
// suite, measured re-placement must beat the static estimate by at
// least this much somewhere, or the tiered pipeline has stopped
// earning its keep.
const TieredGainFloor = 1.05

// CompareTiered diffs a fresh tiered benchmark against the committed
// BENCH_tiered.json. The overheads are deterministic dynamic
// instruction counts (wall times and throughput are recorded but never
// compared), so the gate checks:
//
//   - same suite and quantum — the precondition for comparing at all;
//   - per preset, static and tiered overheads within thresholdPct of
//     the committed record in either direction (drift up is a
//     regression, drift down a stale record silently widening the
//     budget);
//   - at least one preset's fresh gain clears the absolute
//     TieredGainFloor;
//   - tier boundaries still fire — a suite that finishes inside the
//     quantum measures nothing.
func CompareTiered(committed, fresh *TieredBench, thresholdPct float64) []string {
	var findings []string
	if committed.Quantum != fresh.Quantum || !sameStringList(committed.Benchmarks, fresh.Benchmarks) {
		findings = append(findings, fmt.Sprintf(
			"tiered: committed record covers %v at quantum %d, fresh run %v at quantum %d — regenerate BENCH_tiered.json with the standing suite",
			committed.Benchmarks, committed.Quantum, fresh.Benchmarks, fresh.Quantum))
		return findings
	}
	freshRows := map[string]*TieredMachineRow{}
	for i := range fresh.Machines {
		freshRows[fresh.Machines[i].Machine] = &fresh.Machines[i]
	}
	for _, cm := range committed.Machines {
		fm := freshRows[cm.Machine]
		if fm == nil {
			findings = append(findings, fmt.Sprintf("tiered: preset %q missing from fresh run", cm.Machine))
			continue
		}
		findings = append(findings, compareCount("tiered "+cm.Machine, "static overhead", cm.StaticOverhead, fm.StaticOverhead, thresholdPct)...)
		findings = append(findings, compareCount("tiered "+cm.Machine, "tiered overhead", cm.TieredOverhead, fm.TieredOverhead, thresholdPct)...)
	}
	if fresh.BestGain < TieredGainFloor {
		findings = append(findings, fmt.Sprintf(
			"tiered: best preset gain %.3fx is below the %.2fx floor — measured re-placement no longer beats the static estimate",
			fresh.BestGain, TieredGainFloor))
	}
	boundaries := 0
	for _, fm := range fresh.Machines {
		boundaries += fm.Boundaries
	}
	if boundaries == 0 {
		findings = append(findings,
			"tiered: no suite program hit a tier boundary — the quantum no longer exercises re-placement")
	}
	return findings
}

func sameStringList(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InjectTieredRegression artificially inflates a fresh tiered record's
// tiered-arm overheads by pct percent, shrinking every gain below its
// true value, for the CI gate's self-test.
func InjectTieredRegression(b *TieredBench, pct float64) {
	b.BestGain = 0
	for i := range b.Machines {
		row := &b.Machines[i]
		row.TieredOverhead = int64(float64(row.TieredOverhead) * (1 + pct/100))
		if row.TieredOverhead > 0 {
			row.Gain = float64(row.StaticOverhead) / float64(row.TieredOverhead)
		}
		if row.Gain > b.BestGain {
			b.BestGain = row.Gain
		}
	}
}

// InjectAnalysisRegression artificially degrades a fresh analysis
// record by pct percent, for the gate's self-test.
func InjectAnalysisRegression(b *AnalysisBench, pct float64) {
	b.IncrementalNs = int64(float64(b.IncrementalNs) * (1 + pct/100))
	b.SharedNs = int64(float64(b.SharedNs) * (1 + pct/100))
	b.SharedSpeedup /= 1 + pct/100
	b.IncrementalSpeedup /= 1 + pct/100
}

// InjectVMRegression artificially degrades a fresh VM record by pct
// percent. The CI gate's self-test uses it to prove the gate trips on
// a regression instead of rubber-stamping everything.
func InjectVMRegression(b *VMBench, pct float64) {
	b.Speedup /= 1 + pct/100
	for i := range b.Engines {
		b.Engines[i].InstrsPerSec /= 1 + pct/100
	}
}

// InjectSweepRegression artificially inflates a fresh sweep's weighted
// overheads by pct percent, for the same self-test.
func InjectSweepRegression(r *SweepRecord, pct float64) {
	for mi := range r.Machines {
		for si := range r.Machines[mi].Strategies {
			s := &r.Machines[mi].Strategies[si]
			s.WeightedOverhead = int64(float64(s.WeightedOverhead) * (1 + pct/100))
		}
	}
}

// CompareCrossover diffs a fresh crossover run against the committed
// BENCH_crossover.json. Every overhead is a deterministic dynamic
// count, so the gate checks:
//
//   - same benchmark suite and preset list — the precondition for
//     comparing at all;
//   - per benchmark and preset, each allocation mode's best overhead
//     within thresholdPct of the committed record in either direction
//     (up is a regression, down a stale record);
//   - each (benchmark, preset) winner — allocation mode and strategy —
//     unchanged, since winners are deterministic;
//   - at least one fresh benchmark still flips its winner between two
//     presets: the measured crossover the suite exists to demonstrate.
func CompareCrossover(committed, fresh *CrossoverRecord, thresholdPct float64) []string {
	var findings []string
	if !sameStringList(committed.Benchmarks, fresh.Benchmarks) || !sameStringList(committed.Machines, fresh.Machines) {
		findings = append(findings, fmt.Sprintf(
			"crossover: committed record covers %v over %v, fresh run %v over %v — regenerate BENCH_crossover.json with the standing suite",
			committed.Benchmarks, committed.Machines, fresh.Benchmarks, fresh.Machines))
		return findings
	}
	for i, cb := range committed.Benches {
		if i >= len(fresh.Benches) {
			findings = append(findings, fmt.Sprintf("crossover: benchmark %q missing from fresh run", cb.Name))
			continue
		}
		fb := fresh.Benches[i]
		for j, cr := range cb.Presets {
			if j >= len(fb.Presets) {
				findings = append(findings, fmt.Sprintf("crossover: %s@%s missing from fresh run", cb.Name, cr.Machine))
				continue
			}
			fr := fb.Presets[j]
			where := "crossover: " + cb.Name + "@" + cr.Machine
			findings = append(findings, compareCount(where, "uniform-alloc best overhead", cr.UniformOverhead, fr.UniformOverhead, thresholdPct)...)
			findings = append(findings, compareCount(where, "machine-alloc best overhead", cr.MachineOverhead, fr.MachineOverhead, thresholdPct)...)
			if fr.WinnerAlloc != cr.WinnerAlloc || fr.WinnerStrategy != cr.WinnerStrategy {
				findings = append(findings, fmt.Sprintf(
					"%s winner moved from %s/%s to %s/%s — regenerate BENCH_crossover.json if intentional",
					where, cr.WinnerAlloc, cr.WinnerStrategy, fr.WinnerAlloc, fr.WinnerStrategy))
			}
		}
	}
	if fresh.Flips < 1 {
		findings = append(findings,
			"crossover: no benchmark flips its winning strategy or allocation mode across presets — the crossover family stopped demonstrating machine dependence")
	}
	return findings
}

// InjectCrossoverRegression artificially inflates a fresh crossover
// record's machine-alloc overheads by pct percent and recomputes the
// winners and flip count, for the CI gate's self-test: the inflated
// overheads drift past the threshold and the recomputed winners erase
// the allocation-mode flips.
func InjectCrossoverRegression(r *CrossoverRecord, pct float64) {
	r.Flips = 0
	for bi := range r.Benches {
		b := &r.Benches[bi]
		b.StrategyFlip, b.AllocFlip = false, false
		for pi := range b.Presets {
			row := &b.Presets[pi]
			row.MachineOverhead = int64(float64(row.MachineOverhead) * (1 + pct/100))
			for si := range row.Strategies {
				row.Strategies[si].Machine = int64(float64(row.Strategies[si].Machine) * (1 + pct/100))
			}
			row.WinnerAlloc, row.WinnerStrategy = crossoverWinner(row)
		}
		for _, row := range b.Presets[1:] {
			if row.WinnerStrategy != b.Presets[0].WinnerStrategy {
				b.StrategyFlip = true
			}
			if row.WinnerAlloc != b.Presets[0].WinnerAlloc {
				b.AllocFlip = true
			}
		}
		if b.StrategyFlip || b.AllocFlip {
			r.Flips++
		}
	}
}
