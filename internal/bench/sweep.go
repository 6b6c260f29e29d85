package bench

// sweep.go runs the evaluation across machine descriptions: every
// strategy placed and measured under every machine cost preset, all
// presets sharing one register allocation and one analysis cache per
// benchmark. The paper evaluates one hard-coded machine; the sweep
// shows where its claim — optimal placement beats shrink-wrapping and
// entry/exit placement — holds and where the winner crosses over as
// the jump:spill latency ratio moves.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// SweepCell is one (benchmark, machine, strategy) measurement.
type SweepCell struct {
	// WeightedOverhead is the measured overhead priced with the
	// machine's cost surface (vm.Stats.WeightedOverhead).
	WeightedOverhead int64
	// Modeled is the placement's predicted cost under the machine's
	// jump-edge model, before Apply realizes it.
	Modeled int64
	// PlacementTime is the compute time of this strategy's sets under
	// this machine (analyses shared through the benchmark's cache are
	// charged to whichever machine/strategy builds them first).
	PlacementTime time.Duration
	// Stats holds the measurement run's VM counters (deep-copied, so
	// concurrent runs never share a Calls map).
	Stats vm.Stats
}

// SweepBench holds one benchmark's cells, indexed [machine][strategy].
type SweepBench struct {
	Name        string
	Cells       [][strategy.Count]SweepCell
	ReturnValue int64
}

// Winner returns the benchmark's winning strategy under machine mi:
// the lowest measured weighted overhead, ties to the earlier strategy
// in figure order (the simpler technique).
func (r *SweepBench) Winner(mi int) strategy.Strategy {
	w := Strategies[0]
	for _, s := range Strategies {
		if r.Cells[mi][s].WeightedOverhead < r.Cells[mi][w].WeightedOverhead {
			w = s
		}
	}
	return w
}

// Sweep is the outcome of a multi-machine evaluation.
type Sweep struct {
	// Machines are the swept descriptions, in input order.
	Machines []*machine.Desc
	// Results has one entry per benchmark, in input order.
	Results []*SweepBench
	// Builds sums the analysis build counters across every benchmark's
	// cache: with Functions functions placed in total, each counter is
	// at most Functions no matter how many machines were swept — the
	// proof that machine descriptions share analyses instead of
	// rebuilding them.
	Builds analysis.Counts
	// Functions counts the functions placement visited, summed across
	// benchmarks.
	Functions int
}

// MachineTotal aggregates one machine's suite-wide numbers.
type MachineTotal struct {
	Machine   *machine.Desc
	Overhead  [strategy.Count]int64
	Modeled   [strategy.Count]int64
	Placement [strategy.Count]time.Duration
	// Winner is the strategy with the lowest suite-total weighted
	// overhead on this machine (ties go to the earlier strategy in
	// figure order, i.e. the simpler technique).
	Winner strategy.Strategy
}

// MachineTotals sums the per-benchmark cells into per-machine totals.
func (sw *Sweep) MachineTotals() []MachineTotal {
	out := make([]MachineTotal, len(sw.Machines))
	for mi, d := range sw.Machines {
		t := &out[mi]
		t.Machine = d
		for _, r := range sw.Results {
			for _, s := range Strategies {
				t.Overhead[s] += r.Cells[mi][s].WeightedOverhead
				t.Modeled[s] += r.Cells[mi][s].Modeled
				t.Placement[s] += r.Cells[mi][s].PlacementTime
			}
		}
		t.Winner = Strategies[0]
		for _, s := range Strategies {
			if t.Overhead[s] < t.Overhead[t.Winner] {
				t.Winner = s
			}
		}
	}
	return out
}

// RunSweep evaluates every strategy under every machine description
// over the given entries. All machines must share one register file
// (machine.Presets do): each benchmark is generated, profiled, and
// register-allocated once, and every (machine, strategy) placement
// computes its sets through that benchmark's single analysis.Cache —
// liveness, dominators, loops, PST, and the shrink-wrap seed are built
// at most once per function for the whole sweep. Only the hierarchical
// traversals (which read the machine's cost model) and the measurement
// runs repeat per machine.
func RunSweep(entries []Entry, machines []*machine.Desc, opts Options) (*Sweep, error) {
	if len(machines) == 0 {
		machines = machine.Presets()
	}
	if !machine.SameRegisterFile(machines) {
		return nil, fmt.Errorf("bench: swept machines must share a register file")
	}
	if opts.MachineAlloc && len(machines) > 1 {
		// Machine-priced allocation specializes the allocation to one
		// cost surface, which breaks the sweep's shared-allocation
		// premise. RunCrossover sweeps one preset at a time instead.
		return nil, fmt.Errorf("bench: MachineAlloc requires a single-machine sweep")
	}
	evs := make([]*evaluation, len(entries))
	err := eachEntry(len(entries), opts, func(i int, inner Options) (err error) {
		evs[i], err = evaluate(entries[i], machines, inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Machines: machines}
	for _, ev := range evs {
		sw.Results = append(sw.Results, ev.SweepBench)
		sw.Builds.Add(ev.builds)
		sw.Functions += ev.funcs
	}
	return sw, nil
}

// SweepStrategyRecord is one (machine, strategy) suite total in the
// serialized record.
type SweepStrategyRecord struct {
	Name             string  `json:"name"`
	WeightedOverhead int64   `json:"weighted_overhead"`
	Modeled          int64   `json:"modeled"`
	PlacementNS      int64   `json:"placement_ns"`
	RatioVsBaseline  float64 `json:"ratio_vs_baseline"`
}

// SweepMachineRecord is one machine's suite totals.
type SweepMachineRecord struct {
	Name       string                `json:"name"`
	Costs      machine.Costs         `json:"costs"`
	SpillRatio float64               `json:"jump_spill_ratio"`
	Strategies []SweepStrategyRecord `json:"strategies"`
	Winner     string                `json:"winner"`
}

// SweepRecord is the serialized BENCH_machines.json shape. The
// weighted overheads and modeled costs are deterministic — the
// benchmark programs, profiles, allocations, and placements are all
// seeded — so the CI gate compares them against a fresh run with a
// small tolerance and any real change trips it; placement times are
// wall clock and informational only.
type SweepRecord struct {
	Suite      string               `json:"suite"`
	Benchmarks []string             `json:"benchmarks"`
	GoVersion  string               `json:"go_version"`
	Date       string               `json:"date"`
	Functions  int                  `json:"functions"`
	Builds     analysis.Counts      `json:"analysis_builds"`
	Machines   []SweepMachineRecord `json:"machines"`
	// BenchWinners records each benchmark's winning strategy per
	// preset and whether that winner flips anywhere across presets —
	// the per-benchmark view the suite totals above average away.
	BenchWinners []SweepBenchRecord `json:"benchmark_winners,omitempty"`
}

// SweepBenchRecord is one benchmark's per-preset winners.
type SweepBenchRecord struct {
	Name string `json:"name"`
	// Winners maps preset name to the winning strategy on this
	// benchmark (lowest measured weighted overhead, ties to the
	// simpler technique).
	Winners map[string]string `json:"winners"`
	// Flips is true when the winner is not the same strategy under
	// every preset.
	Flips bool `json:"winner_flips"`
}

// Record flattens the sweep into its serialized form.
func (sw *Sweep) Record(suiteName string) *SweepRecord {
	rec := &SweepRecord{
		Suite:     suiteName,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Functions: sw.Functions,
		Builds:    sw.Builds,
	}
	for _, r := range sw.Results {
		rec.Benchmarks = append(rec.Benchmarks, r.Name)
		br := SweepBenchRecord{Name: r.Name, Winners: make(map[string]string, len(sw.Machines))}
		first := r.Winner(0)
		for mi, d := range sw.Machines {
			w := r.Winner(mi)
			br.Winners[d.Name] = Label(w)
			if w != first {
				br.Flips = true
			}
		}
		rec.BenchWinners = append(rec.BenchWinners, br)
	}
	for _, t := range sw.MachineTotals() {
		mr := SweepMachineRecord{
			Name:       t.Machine.Name,
			Costs:      t.Machine.Costs,
			SpillRatio: t.Machine.Costs.SpillRatio(),
			Winner:     Label(t.Winner),
		}
		for _, s := range Strategies {
			ratio := 100.0
			if base := t.Overhead[strategy.EntryExit]; base != 0 {
				ratio = 100 * float64(t.Overhead[s]) / float64(base)
			}
			mr.Strategies = append(mr.Strategies, SweepStrategyRecord{
				Name:             Label(s),
				WeightedOverhead: t.Overhead[s],
				Modeled:          t.Modeled[s],
				PlacementNS:      t.Placement[s].Nanoseconds(),
				RatioVsBaseline:  ratio,
			})
		}
		rec.Machines = append(rec.Machines, mr)
	}
	return rec
}

// JSON renders the record, indented, trailing newline included.
func (r *SweepRecord) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// SweepSuite is the standing configuration of the committed
// BENCH_machines.json: the SPEC stand-in suite swept over every
// machine preset. cmd/spillbench writes it and cmd/benchdiff
// reproduces it for the CI regression gate.
func SweepSuite(parallelism int) (*SweepRecord, error) {
	var entries []Entry
	for _, p := range workload.SPECInt2000() {
		entries = append(entries, EntryFor(p))
	}
	sw, err := RunSweep(entries, machine.Presets(), Options{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	return sw.Record("SPEC CPU2000 integer stand-ins"), nil
}
