package bench

// tiered.go measures what the tiered pipeline buys: the same
// estimator-hostile programs placed once with static estimates and
// once through the two-tier measured re-placement (internal/tier),
// full-run weighted overhead compared per machine preset. The suite is
// irgen's hostile family — data-dependent trip counts, constant-folded
// guards, skewed twin loops — precisely the shapes the static
// estimator prices wrong, so the measured profile has something real
// to recover. Overheads are deterministic dynamic counts; the wall
// times and instrs/s are recorded for the EXPERIMENTS.md narrative but
// never gated.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/tier"
	"repro/internal/vm"
)

// HostileSuite returns n estimator-hostile scenario entries, seeds
// base..base+n-1 — the irgen family built to make static estimates
// wrong, which is the workload the tiered pipeline exists for.
func HostileSuite(base uint64, n int) []Entry {
	if n < 0 {
		n = 0
	}
	out := make([]Entry, n)
	for i := range out {
		seed := base + uint64(i)
		out[i] = Entry{
			Name: "hostile-" + fmt.Sprint(seed),
			Gen:  func() *ir.Program { return irgen.Generate(seed, irgen.Hostile()) },
		}
	}
	return out
}

// TieredMachineRow is one machine preset's static-vs-measured
// comparison, summed over the suite.
type TieredMachineRow struct {
	Machine string `json:"machine"`
	// StaticOverhead is the full-run cost of the programs aligned and
	// placed with static-estimate weights — the weighted spill-code
	// overhead plus the measured control-flow cost (taken jumps at the
	// preset's jump penalty, fall-throughs at the fall cost). The cost
	// a one-shot compile pays.
	StaticOverhead int64 `json:"static_overhead"`
	// TieredOverhead is the same full-run cost for the tier-1
	// placements — the programs re-aligned and re-placed with the edge
	// profile tier 0 measured.
	TieredOverhead int64 `json:"tiered_overhead"`
	// Gain is StaticOverhead over TieredOverhead: how much overhead the
	// measured re-placement removes. Both terms are deterministic
	// dynamic counts, so Gain is exactly reproducible.
	Gain float64 `json:"gain"`
	// Boundaries counts suite programs whose tier-0 quantum expired
	// (the rest finished inside it and never re-placed).
	Boundaries int `json:"boundaries"`
	// Replaced is the total number of functions re-placed at tier
	// boundaries across the suite.
	Replaced int `json:"replaced"`
	// StaticNS / TieredNS are total wall times: the static arm's full
	// run, and the tiered arm end to end — tier 0, the boundary
	// recompile, and tier 1. Host-dependent, recorded, not gated.
	StaticNS int64 `json:"static_ns"`
	TieredNS int64 `json:"tiered_ns"`
	// InstrsPerSec is the tiered arm's end-to-end VM instruction
	// throughput, recompile included.
	InstrsPerSec float64 `json:"instrs_per_sec"`
}

// TieredBench is the serialized BENCH_tiered.json shape.
type TieredBench struct {
	Suite      string             `json:"suite"`
	Benchmarks []string           `json:"benchmarks"`
	Quantum    int64              `json:"quantum"`
	Reps       int                `json:"reps"`
	GoVersion  string             `json:"go_version"`
	GOARCH     string             `json:"goarch"`
	Date       string             `json:"date"`
	Machines   []TieredMachineRow `json:"machines"`
	// BestGain is the largest per-preset Gain — the headline number the
	// gate holds to the absolute TieredGainFloor.
	BestGain float64 `json:"best_gain"`
}

// BenchTiered runs the static-vs-tiered comparison over every machine
// preset. For each (preset, entry) pair both arms start from the same
// generated program under the same static estimate and allocation:
//
//	static arm: align + place with the estimated weights, run to
//	completion, price the overhead with the preset's costs;
//	tiered arm: tier.Run with the given quantum (tier 0 profiles under
//	regcode, the boundary re-aligns and re-places from measured
//	weights), then run the final tier-1 program to completion and
//	price it identically.
//
// Overheads accumulate once per entry; the timing loop repeats reps
// times and keeps the minimum wall time per arm, standard
// best-of-N noise suppression for the recorded (ungated) throughput.
func BenchTiered(entries []Entry, quantum int64, reps int) (*TieredBench, error) {
	if reps <= 0 {
		reps = 3
	}
	if quantum <= 0 {
		quantum = tier.DefaultQuantum
	}
	out := &TieredBench{
		Suite:     "irgen hostile scenario family",
		Quantum:   quantum,
		Reps:      reps,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format("2006-01-02"),
	}
	for _, e := range entries {
		out.Benchmarks = append(out.Benchmarks, e.Name)
	}
	for _, d := range machine.Presets() {
		row := TieredMachineRow{Machine: d.Name}
		var rowInstrs int64
		for _, e := range entries {
			var staticBest, tieredBest int64
			for r := 0; r < reps; r++ {
				prog := e.Gen()
				profile.EstimateProgramMachine(prog, d, nil)
				if _, err := regalloc.AllocateProgramParallel(prog, d, 0); err != nil {
					return nil, fmt.Errorf("benchtiered %s/%s: regalloc: %w", d.Name, e.Name, err)
				}

				// Static arm: the one-shot estimate-weighted pipeline.
				st := prog.Clone()
				for _, f := range st.FuncsInOrder() {
					layout.Align(f)
				}
				if err := strategy.PlaceProgramFor(st, strategy.HierarchicalJump, d, 0, nil); err != nil {
					return nil, fmt.Errorf("benchtiered %s/%s: static place: %w", d.Name, e.Name, err)
				}
				m := vm.New(st, vm.Config{Machine: d, CollectEdges: true})
				start := time.Now()
				if _, err := m.Run(0); err != nil {
					return nil, fmt.Errorf("benchtiered %s/%s: static run: %w", d.Name, e.Name, err)
				}
				staticNS := time.Since(start).Nanoseconds()

				// Tiered arm, end to end: tier 0 under the quantum, the
				// boundary recompile, tier 1 to completion.
				start = time.Now()
				res, err := tier.Run(prog, tier.Config{
					Machine:  d,
					Strategy: strategy.HierarchicalJump,
					Quantum:  quantum,
				}, 0)
				if err != nil {
					return nil, fmt.Errorf("benchtiered %s/%s: tiered run: %w", d.Name, e.Name, err)
				}
				tieredNS := time.Since(start).Nanoseconds()

				// Price the final placement over a full fresh run, the
				// same way the static arm is priced.
				mf := vm.New(res.Final, vm.Config{Machine: d, CollectEdges: true})
				if _, err := mf.Run(0); err != nil {
					return nil, fmt.Errorf("benchtiered %s/%s: final run: %w", d.Name, e.Name, err)
				}

				if r == 0 {
					row.StaticOverhead += m.Stats.WeightedOverhead(d.Costs) + layout.Cost(st, m.EdgeCount, d.Costs)
					row.TieredOverhead += mf.Stats.WeightedOverhead(d.Costs) + layout.Cost(res.Final, mf.EdgeCount, d.Costs)
					if res.Boundary {
						row.Boundaries++
					}
					row.Replaced += res.Replaced
					rowInstrs += res.Stats.Instrs
					staticBest, tieredBest = staticNS, tieredNS
				} else {
					if staticNS < staticBest {
						staticBest = staticNS
					}
					if tieredNS < tieredBest {
						tieredBest = tieredNS
					}
				}
			}
			row.StaticNS += staticBest
			row.TieredNS += tieredBest
		}
		if row.TieredOverhead > 0 {
			row.Gain = float64(row.StaticOverhead) / float64(row.TieredOverhead)
		}
		if row.TieredNS > 0 {
			row.InstrsPerSec = float64(rowInstrs) / (float64(row.TieredNS) / 1e9)
		}
		out.Machines = append(out.Machines, row)
		if row.Gain > out.BestGain {
			out.BestGain = row.Gain
		}
	}
	return out, nil
}

// JSON renders the record, indented, trailing newline included.
func (b *TieredBench) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
