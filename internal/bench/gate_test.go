package bench

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

func freshSweepRecord(t *testing.T) *SweepRecord {
	t.Helper()
	sw, err := RunSweep(sweepEntries(t), machine.Presets(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Record("test suite")
}

// TestGatePassesOnIdenticalSweep: a fresh sweep compared against
// itself must produce no findings — the gate does not cry wolf on a
// healthy tree.
func TestGatePassesOnIdenticalSweep(t *testing.T) {
	rec := freshSweepRecord(t)
	if findings := CompareSweep(rec, rec, 15); len(findings) != 0 {
		t.Fatalf("self-comparison produced findings: %v", findings)
	}
}

// TestGateCatchesInjectedSweepRegression: inflating the fresh weighted
// overheads by 20%% must trip a 15%% gate on every machine — the CI
// job's self-test relies on this. (ISSUE 5 acceptance criterion.)
func TestGateCatchesInjectedSweepRegression(t *testing.T) {
	committed := freshSweepRecord(t)
	fresh := freshSweepRecord(t)
	InjectSweepRegression(fresh, 20)
	findings := CompareSweep(committed, fresh, 15)
	if len(findings) == 0 {
		t.Fatal("gate passed an injected 20% regression")
	}
	// A 20% inflation with a 15% threshold must flag every machine
	// whose baseline overhead is non-trivial, not just one cell.
	if len(findings) < len(committed.Machines) {
		t.Errorf("only %d findings for %d machines: %v", len(findings), len(committed.Machines), findings)
	}
}

// TestGateCatchesStaleImprovement: a fresh sweep 20% *better* than the
// committed record is also a finding — a stale record would silently
// widen the regression budget for the next change.
func TestGateCatchesStaleImprovement(t *testing.T) {
	committed := freshSweepRecord(t)
	fresh := freshSweepRecord(t)
	InjectSweepRegression(fresh, -20)
	findings := CompareSweep(committed, fresh, 15)
	if len(findings) == 0 {
		t.Fatal("gate passed a 20% improvement against a stale committed record")
	}
}

// TestGateCatchesSuiteMismatch: a committed record built from a
// different benchmark suite cannot gate anything; the finding must say
// so instead of reporting misleading per-strategy regressions.
func TestGateCatchesSuiteMismatch(t *testing.T) {
	committed := freshSweepRecord(t)
	fresh := freshSweepRecord(t)
	fresh.Benchmarks = append(fresh.Benchmarks, "irgen-99")
	findings := CompareSweep(committed, fresh, 15)
	if len(findings) != 1 || !strings.Contains(findings[0], "suite") {
		t.Fatalf("want a single suite-mismatch finding, got %v", findings)
	}
}

// TestGateCatchesMissingMachine: a fresh sweep that silently dropped a
// preset is a finding, not a pass.
func TestGateCatchesMissingMachine(t *testing.T) {
	committed := freshSweepRecord(t)
	fresh := freshSweepRecord(t)
	fresh.Machines = fresh.Machines[1:]
	if findings := CompareSweep(committed, fresh, 15); len(findings) == 0 {
		t.Fatal("gate passed a sweep missing a machine preset")
	}
}

// TestGateCatchesAnalysisRebuilds: build counters exceeding the
// function count mean per-machine rebuilds crept back in; the gate
// guards the sharing property itself.
func TestGateCatchesAnalysisRebuilds(t *testing.T) {
	committed := freshSweepRecord(t)
	fresh := freshSweepRecord(t)
	fresh.Builds.Liveness = fresh.Functions*len(machine.Presets()) + 1
	if findings := CompareSweep(committed, fresh, 15); len(findings) == 0 {
		t.Fatal("gate passed a sweep with per-machine analysis rebuilds")
	}
}

// vmRecord is a record as BenchVM produces them: regcode and tree run
// the same suite, so per-run instruction counts agree across engines
// in a healthy record.
func vmRecord(speedup float64, instrsPerRun int64) *VMBench {
	return &VMBench{
		Speedup: speedup,
		Engines: []EngineBench{
			{Engine: "regcode", Runs: 3, Instrs: 3 * instrsPerRun},
			{Engine: "tree", Runs: 3, Instrs: 3 * instrsPerRun},
		},
	}
}

// TestGateVMSpeedupRatio: the VM gate trips on a speedup-ratio
// regression past the threshold and stays quiet within it. Ratios are
// host-independent, so the gate works on any CI runner.
func TestGateVMSpeedupRatio(t *testing.T) {
	committed := vmRecord(6.0, 1000)
	if findings := CompareVM(committed, committed, 15); len(findings) != 0 {
		t.Errorf("self-comparison produced findings: %v", findings)
	}
	if findings := CompareVM(committed, vmRecord(5.8, 1000), 15); len(findings) != 0 {
		t.Errorf("3.3%% ratio drop tripped a 15%% gate: %v", findings)
	}
	// 4.8x is a 20% drop but still above the absolute floor, so the
	// relative check alone must catch it.
	findings := CompareVM(committed, vmRecord(4.8, 1000), 15)
	if len(findings) == 0 {
		t.Error("20% ratio drop passed a 15% gate")
	}
	for _, f := range findings {
		if !strings.Contains(f, "regressed more than 15%") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	fresh := vmRecord(6.0, 1000)
	InjectVMRegression(fresh, 20)
	if findings := CompareVM(committed, fresh, 15); len(findings) == 0 {
		t.Error("injected 20% VM regression passed a 15% gate")
	}
}

// TestGateVMRegcodeRatio: the gated ratio is the regcode engine's
// instruction throughput over the tree reference's, measured on the
// same placed programs, with every (benchmark, engine) row executing
// the same instruction count.
func TestGateVMRegcodeRatio(t *testing.T) {
	rec, err := BenchVM(workloadSuite(t)[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Engines) != 2 || rec.Engines[0].Engine != "regcode" || rec.Engines[1].Engine != "tree" {
		t.Fatalf("engines = %+v, want regcode then tree", rec.Engines)
	}
	if want := rec.Engines[0].InstrsPerSec / rec.Engines[1].InstrsPerSec; rec.Speedup != want {
		t.Errorf("speedup = %v, want regcode over tree %v", rec.Speedup, want)
	}
	if len(rec.PerBenchmark) != 2 || rec.PerBenchmark[0].Instrs != rec.PerBenchmark[1].Instrs {
		t.Errorf("per-benchmark rows disagree: %+v", rec.PerBenchmark)
	}
	// A one-rep measurement's ratio depends on the test host, so only
	// the floor may fire on its self-comparison; TestCommittedVMRecord
	// holds the committed record itself to the floor.
	for _, f := range CompareVM(rec, rec, 15) {
		if !strings.Contains(f, "floor") {
			t.Errorf("self-comparison produced finding: %s", f)
		}
	}
}

// TestCommittedVMRecord: the committed BENCH_vm.json must pass its own
// gate — a regcode and a tree row whose ratio is the recorded speedup,
// at or above VMSpeedupFloor, with matching instruction counts — so the
// record and the floor cannot drift apart.
func TestCommittedVMRecord(t *testing.T) {
	var rec VMBench
	readRecord(t, "../../BENCH_vm.json", &rec)
	if len(rec.Engines) != 2 || rec.Engines[0].Engine != "regcode" || rec.Engines[1].Engine != "tree" {
		t.Fatalf("engines = %+v, want regcode then tree", rec.Engines)
	}
	want := rec.Engines[0].InstrsPerSec / rec.Engines[1].InstrsPerSec
	if math.Abs(rec.Speedup-want) > 1e-9*want {
		t.Errorf("speedup = %v, want regcode over tree %v", rec.Speedup, want)
	}
	if rec.Speedup < VMSpeedupFloor {
		t.Errorf("committed speedup %.2fx is below the %.1fx floor", rec.Speedup, VMSpeedupFloor)
	}
	if findings := CompareVM(&rec, &rec, 15); len(findings) != 0 {
		t.Errorf("committed record fails its own gate: %v", findings)
	}
	if len(rec.PerBenchmark) != 2*len(rec.Benchmarks) {
		t.Fatalf("%d per-benchmark rows for %d benchmarks", len(rec.PerBenchmark), len(rec.Benchmarks))
	}
	for i := 0; i < len(rec.PerBenchmark); i += 2 {
		if a, b := rec.PerBenchmark[i], rec.PerBenchmark[i+1]; a.Benchmark != b.Benchmark || a.Instrs != b.Instrs {
			t.Errorf("per-benchmark rows disagree: %+v vs %+v", a, b)
		}
	}
}

// TestGateVMRegcodeFloor: whatever the committed record says, a fresh
// regcode-over-tree speedup below the absolute VMSpeedupFloor is a
// finding — the engine exists to clear that bar. The CI self-test's
// -inject 100 halves any plausible ratio (4.93x, the committed one,
// becomes about 2.47x), so it trips.
func TestGateVMRegcodeFloor(t *testing.T) {
	hasFloor := func(findings []string) bool {
		for _, f := range findings {
			if strings.Contains(f, "below the 4.5x floor") {
				return true
			}
		}
		return false
	}
	committed := vmRecord(4.6, 1000)
	if findings := CompareVM(committed, vmRecord(4.6, 1000), 15); len(findings) != 0 {
		t.Errorf("4.60x above the floor tripped the gate: %v", findings)
	}
	// Within the relative threshold, so only the floor can catch it.
	if findings := CompareVM(committed, vmRecord(4.4, 1000), 15); !hasFloor(findings) {
		t.Errorf("regcode at 4.40x passed the %.1fx floor: %v", VMSpeedupFloor, findings)
	}
	fresh := vmRecord(4.93, 1000)
	InjectVMRegression(fresh, 100)
	if findings := CompareVM(vmRecord(4.93, 1000), fresh, 15); !hasFloor(findings) {
		t.Errorf("injected 100%% regression (%.2fx) passed the floor: %v", fresh.Speedup, findings)
	}
}

// TestGateVMCrossEngineInstrs: within one fresh run both engines
// execute the same programs, so a per-run instruction count that
// differs from the tree reference's means the regcode engine miscounts.
func TestGateVMCrossEngineInstrs(t *testing.T) {
	committed := vmRecord(5.0, 1000)
	fresh := vmRecord(5.0, 1000)
	fresh.Engines[0].Instrs += 3
	findings := CompareVM(committed, fresh, 15)
	found := false
	for _, f := range findings {
		if strings.Contains(f, "but tree executes") && strings.Contains(f, "an engine miscounts") {
			found = true
		}
	}
	if !found {
		t.Errorf("cross-engine instruction drift passed the gate: %v", findings)
	}
}

// workloadSuite trims the stand-in suite to two benchmarks so the
// end-to-end analysis benchmark stays fast under `go test`.
func workloadSuite(t *testing.T) []workload.BenchParams {
	t.Helper()
	var suite []workload.BenchParams
	for _, p := range workload.SPECInt2000() {
		if p.Name == "gzip" || p.Name == "mcf" {
			suite = append(suite, p)
		}
	}
	return suite
}

func analysisRecord(incSpeedup float64) *AnalysisBench {
	return &AnalysisBench{
		Benchmarks: []AnalysisRecord{
			{Benchmark: "gzip", Functions: 40, ColdNs: 40_000_000, SharedNs: 9_000_000, IncrementalNs: int64(40_000_000 / incSpeedup)},
		},
		ColdNs:              40_000_000,
		SharedNs:            9_000_000,
		IncrementalNs:       int64(40_000_000 / incSpeedup),
		SharedSpeedup:       40.0 / 9.0,
		IncrementalSpeedup:  incSpeedup,
		IncrementalOverhead: 40.0 / incSpeedup / 9.0,
	}
}

// TestGateAnalysisSpeedup: the analysis gate trips when the incremental
// re-placement speedup regresses past the threshold or the incremental
// path's overhead over a warm re-placement rises above the absolute
// ceiling, and stays quiet on a healthy record.
func TestGateAnalysisSpeedup(t *testing.T) {
	committed := analysisRecord(8)
	if findings := CompareAnalysis(committed, analysisRecord(7.5), 15); len(findings) != 0 {
		t.Errorf("6%% ratio drop tripped a 15%% gate: %v", findings)
	}
	if findings := CompareAnalysis(committed, analysisRecord(5), 15); len(findings) == 0 {
		t.Error("37% ratio drop passed a 15% gate")
	}
	slow := analysisRecord(8)
	slow.IncrementalOverhead = AnalysisOverheadCeiling + 0.1
	if findings := CompareAnalysis(committed, slow, 15); len(findings) == 0 {
		t.Error("incremental overhead above the ceiling passed the gate")
	}
	fresh := analysisRecord(8)
	InjectAnalysisRegression(fresh, 20)
	if findings := CompareAnalysis(committed, fresh, 15); len(findings) == 0 {
		t.Error("injected 20% analysis regression passed a 15% gate")
	}
}

// TestCommittedAnalysisRecord: the committed BENCH_analysis.json must
// pass its own gate — its ratios follow from its totals, its
// incremental overhead sits under AnalysisOverheadCeiling, and it
// records no rebuild fallbacks — so the record and the ceiling cannot
// drift apart.
func TestCommittedAnalysisRecord(t *testing.T) {
	var rec AnalysisBench
	readRecord(t, "../../BENCH_analysis.json", &rec)
	if rec.SharedNs <= 0 || rec.IncrementalNs <= 0 {
		t.Fatalf("record totals missing: %+v", rec)
	}
	ratios := []struct {
		name      string
		got, want float64
	}{
		{"shared_speedup", rec.SharedSpeedup, float64(rec.ColdNs) / float64(rec.SharedNs)},
		{"incremental_speedup", rec.IncrementalSpeedup, float64(rec.ColdNs) / float64(rec.IncrementalNs)},
		{"incremental_overhead", rec.IncrementalOverhead, float64(rec.IncrementalNs) / float64(rec.SharedNs)},
	}
	for _, r := range ratios {
		if math.Abs(r.got-r.want) > 1e-9*r.want {
			t.Errorf("%s = %v, want %v from the totals", r.name, r.got, r.want)
		}
	}
	if findings := CompareAnalysis(&rec, &rec, 30); len(findings) != 0 {
		t.Errorf("committed record fails its own gate: %v", findings)
	}
}

// TestGateAnalysisRebuildFallbacks: any incremental re-placement that
// fell back to a full analysis rebuild is a finding — it means a
// placement edit shape the delta patchers stopped recognizing.
func TestGateAnalysisRebuildFallbacks(t *testing.T) {
	committed := analysisRecord(8)
	fresh := analysisRecord(8)
	fresh.Rebuilds = 1
	if findings := CompareAnalysis(committed, fresh, 15); len(findings) == 0 {
		t.Error("gate passed a record with full-rebuild fallbacks")
	}
}

// TestGateAnalysisSuiteDrift: a fresh record covering a benchmark or
// function population the committed record does not know is a finding.
func TestGateAnalysisSuiteDrift(t *testing.T) {
	committed := analysisRecord(8)
	fresh := analysisRecord(8)
	fresh.Benchmarks[0].Functions++
	if findings := CompareAnalysis(committed, fresh, 15); len(findings) == 0 {
		t.Error("gate passed a function-count drift")
	}
	fresh = analysisRecord(8)
	fresh.Benchmarks[0].Benchmark = "vpr"
	if findings := CompareAnalysis(committed, fresh, 15); len(findings) == 0 {
		t.Error("gate passed an unknown benchmark")
	}
}

// TestBenchAnalysisEndToEnd: the analysis benchmark itself runs over a
// small generated suite, measures a real incremental advantage, and
// records zero full-rebuild fallbacks — the live half of the acceptance
// criterion the JSON gate pins.
func TestBenchAnalysisEndToEnd(t *testing.T) {
	suite := workloadSuite(t)
	b, err := BenchAnalysis(suite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rebuilds != 0 {
		t.Errorf("incremental re-placement fell back to %d full rebuilds", b.Rebuilds)
	}
	if b.IncrementalSpeedup <= 1 {
		t.Errorf("incremental re-placement slower than cold: %.2fx", b.IncrementalSpeedup)
	}
	if len(b.Benchmarks) != len(suite) {
		t.Errorf("record covers %d benchmarks, suite has %d", len(b.Benchmarks), len(suite))
	}
	if findings := CompareAnalysis(b, b, 15); b.IncrementalOverhead <= AnalysisOverheadCeiling && len(findings) != 0 {
		t.Errorf("self-comparison produced findings: %v", findings)
	}
	if _, err := b.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestGateVMInstrDrift: deterministic per-run instruction counts must
// match the committed record exactly; drift means a stale record or a
// miscounting engine.
func TestGateVMInstrDrift(t *testing.T) {
	committed := vmRecord(5.0, 1000)
	if findings := CompareVM(committed, vmRecord(5.0, 1001), 15); len(findings) == 0 {
		t.Error("instruction-count drift passed the gate")
	}
}

// TestCommittedRecordLabels: the strategy names in the committed sweep
// and crossover records are exactly bench's labels in figure order,
// and every recorded winner is one of them — the gate matches records
// by these names, so a label drift would orphan every committed row.
func TestCommittedRecordLabels(t *testing.T) {
	var labels []string
	for _, s := range Strategies {
		labels = append(labels, Label(s))
	}
	if want := []string{"Baseline", "Shrinkwrap", "Optimized", "OptimizedExec"}; !slices.Equal(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	isLabel := func(name string) bool { return slices.Contains(labels, name) }

	var sweep SweepRecord
	readRecord(t, "../../BENCH_machines.json", &sweep)
	for _, m := range sweep.Machines {
		var names []string
		for _, s := range m.Strategies {
			names = append(names, s.Name)
		}
		if !slices.Equal(names, labels) {
			t.Errorf("BENCH_machines.json %s: strategies %v, want %v", m.Name, names, labels)
		}
		if !isLabel(m.Winner) {
			t.Errorf("BENCH_machines.json %s: winner %q is not a label", m.Name, m.Winner)
		}
	}
	for _, b := range sweep.BenchWinners {
		for preset, w := range b.Winners {
			if !isLabel(w) {
				t.Errorf("BENCH_machines.json %s@%s: winner %q is not a label", b.Name, preset, w)
			}
		}
	}

	var cross CrossoverRecord
	readRecord(t, "../../BENCH_crossover.json", &cross)
	for _, b := range cross.Benches {
		for _, row := range b.Presets {
			var names []string
			for _, c := range row.Strategies {
				names = append(names, c.Strategy)
			}
			if !slices.Equal(names, labels) {
				t.Errorf("BENCH_crossover.json %s@%s: strategies %v, want %v", b.Name, row.Machine, names, labels)
			}
			for _, w := range []string{row.UniformBest, row.MachineBest, row.WinnerStrategy} {
				if !isLabel(w) {
					t.Errorf("BENCH_crossover.json %s@%s: winner %q is not a label", b.Name, row.Machine, w)
				}
			}
		}
	}
}

// readRecord decodes a committed JSON record.
func readRecord(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
