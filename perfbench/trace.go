package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"
)

// span is one recorded interval: a call the benchmark made into a
// layer, or one whole op. Spans of one op share its op number.
type span struct {
	name   string
	op     int
	parent int   // index of the enclosing span, -1 for none
	start  int64 // ns since the run's start
	end    int64
	alloc  int64 // heap bytes allocated during the span
}

// tracer records spans in memory. A nil tracer records nothing, so
// untraced ops pay one nil check per call.
type tracer struct {
	t0     time.Time
	sample []metrics.Sample
	spans  []span
	cur    int // innermost open span, -1 for none
	op     int
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{
		t0:     t0,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		spans:  make([]span, 0, 1<<14),
		cur:    -1,
		op:     -1,
	}
}

// heapAllocs is the process's cumulative heap bytes allocated. The
// benchmark runs one op at a time, so a span's difference is its own
// allocation plus any the service's connection goroutines make.
func (t *tracer) heapAllocs() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span nested in the innermost open one; an "op" span
// sets the op number its children carry.
func (t *tracer) begin(name string, op int) int {
	if name == "op" {
		t.op = op
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.cur, alloc: t.heapAllocs()})
	idx := len(t.spans) - 1
	t.cur = idx
	t.spans[idx].start = time.Since(t.t0).Nanoseconds()
	return idx
}

func (t *tracer) end(idx int) {
	s := &t.spans[idx]
	s.end = time.Since(t.t0).Nanoseconds()
	s.alloc = t.heapAllocs() - s.alloc
	t.cur = s.parent
}

// span runs f inside a span named for the layer it calls into.
func (t *tracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	idx := t.begin(name, t.op)
	err := f()
	t.end(idx)
	return err
}

// layerTotals aggregates spans by name: summed duration, self time
// (duration minus the time child spans cover) and allocated bytes.
type layerTotals struct {
	count     int
	dur, self int64
	alloc     int64
}

type layerMap map[string]*layerTotals

// get returns the totals of a span name, zero if none was recorded.
func (m layerMap) get(name string) *layerTotals {
	if lt := m[name]; lt != nil {
		return lt
	}
	return &layerTotals{}
}

func aggregate(spans []span) layerMap {
	childDur := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
		}
	}
	out := layerMap{}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.dur += d
		lt.self += d - childDur[i]
		lt.alloc += s.alloc
	}
	return out
}

// layerOrder lists the span names the breakdown reports, in pipeline
// order: the facade stages, the service round trip, then the op.
var layerOrder = []string{"irtext", "profile", "regalloc", "clone", "strategy", "core", "vm", "server", "metrics", "op"}

// printBreakdown writes the per-layer self time, its share of op
// time and the allocated bytes per op of each layer.
func printBreakdown(w io.Writer, name string, rs *runStats) {
	agg := aggregate(rs.spans)
	op := agg.get("op")
	opDur, ops := max(op.dur, 1), int64(max(op.count, 1))
	fmt.Fprintf(w, "%s traced breakdown over %d of %d ops (%.1f ops/s traced, %.1f untraced):\n",
		name, op.count, rs.ops, rs.opsPerS(tracedWindows), rs.opsPerS(untracedWindows))
	fmt.Fprintf(w, "  %-9s %8s %12s %8s %14s\n", "layer", "spans", "self ns/op", "self share", "alloc B/op")
	for _, n := range layerOrder {
		lt := agg[n]
		if lt == nil {
			continue
		}
		fmt.Fprintf(w, "  %-9s %8d %12d %7.1f%% %14d\n", n, lt.count, lt.self/ops, 100*float64(lt.self)/float64(opDur), lt.alloc/ops)
	}
}

// writeSpans writes the traced run's spans, one JSON object a line,
// to .bench_build/perfbench-trace/<workload>-seed<seed>.jsonl.
func writeSpans(name string, seed uint64, rs *runStats) error {
	dir := filepath.Join(".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rs.spans {
		rec := struct {
			Name    string `json:"name"`
			Op      int    `json:"op"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Alloc   int64  `json:"alloc_bytes"`
		}{s.name, s.op, s.parent, s.start, s.end, s.alloc}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layerMetrics are the traced run's per-layer metrics. Times and
// allocations come from spans; instruction and static counts are the
// deterministic first-pass totals; serve adds its own.
func layerMetrics(rs *runStats) map[string]metric {
	agg := aggregate(rs.spans)
	get := agg.get
	ops := float64(max(get("op").count, 1))
	detOps := float64(max(rs.detOps, 1))
	perOp := func(v int64) float64 { return float64(v) / ops }
	det := func(v int64) float64 { return float64(v) / detOps }
	share := func(n string) float64 {
		if op := get("op").dur; op > 0 {
			return float64(get(n).dur) / float64(op)
		}
		return 0
	}
	irtext, vmRun := get("irtext"), get("vm")
	mbPerS := 0.0
	if irtext.dur > 0 {
		mbPerS = float64(rs.traced.irBytes) / 1e6 / (float64(irtext.dur) / 1e9)
	}
	instrsPerS := 0.0
	if vmRun.dur > 0 {
		instrsPerS = float64(rs.traced.runInstrs) / (float64(vmRun.dur) / 1e9)
	}
	lat := slices.Clone(rs.lat)
	slices.Sort(lat)
	tailPct, tailV := tail(lat)
	traced, untraced := rs.opsPerS(tracedWindows), rs.opsPerS(untracedWindows)
	overhead := 0.0
	if traced > 0 {
		overhead = 100 * (untraced/traced - 1)
	}
	m := map[string]metric{
		"irtext.ns_per_op":                  {perOp(irtext.dur), "ns"},
		"irtext.mb_per_s":                   {mbPerS, "MB/s"},
		"irtext.alloc_bytes_per_op":         {perOp(irtext.alloc), "B"},
		"profile.ns_per_op":                 {perOp(get("profile").dur), "ns"},
		"profile.instrs_per_op":             {det(rs.det.profileInstrs), "count"},
		"vm.run_ns_per_op":                  {perOp(vmRun.dur), "ns"},
		"vm.instrs_per_op":                  {det(rs.det.runInstrs), "count"},
		"vm.instrs_per_s":                   {instrsPerS, "1/s"},
		"regalloc.ns_per_op":                {perOp(get("regalloc").dur), "ns"},
		"regalloc.alloc_bytes_per_op":       {perOp(get("regalloc").alloc), "B"},
		"regalloc.spill_instrs_per_op":      {det(rs.det.spillInstrs), "count"},
		"strategy.place_ns_per_op":          {perOp(get("strategy").dur), "ns"},
		"strategy.place_alloc_bytes_per_op": {perOp(get("strategy").alloc), "B"},
		"analysis.builds_per_op":            {det(rs.det.builds), "count"},
		"analysis.split_dom_per_op":         {det(rs.det.splitDom), "count"},
		"analysis.delta_full":               {float64(rs.det.deltaFull), "count"},
		"core.report_ns_per_op":             {perOp(get("core").dur), "ns"},
		"core.save_restore_instrs_per_op":   {det(rs.det.saveRestoreInstrs), "count"},
		"core.jump_block_instrs_per_op":     {det(rs.det.jumpBlockInstrs), "count"},
		"runtime.gc_cycles_per_op":          {float64(rs.gcCycles) / float64(max(rs.ops, 1)), "count"},
		"op.self_ns":                        {perOp(get("op").self), "ns"},
		"op.ops_per_s":                      {rs.opsPerS(allWindows), "1/s"},
		"op.latency_p50_ms":                 {ms(percentile(lat, 50)), "ms"},
		"op.cpu_ms_per_op":                  {msPerOp(rs.passCPU, rs.pass), "ms"},
		"op.ref_shot_us":                    {median(slices.Clone(rs.refShots)) / 1e3, "us"},
		"op.latency_tail_ms":                {ms(tailV), "ms"},
		"op.latency_tail_pct":               {tailPct, "%"},
		"op.latency_samples":                {float64(len(lat)), "count"},
		"op.failed_ratio":                   {float64(rs.failed) / float64(max(rs.ops, 1)), "ratio"},
		"trace.ops_per_s":                   {traced, "1/s"},
		"trace.untraced_ops_per_s":          {untraced, "1/s"},
		"trace.overhead_pct":                {overhead, "%"},
	}
	for _, n := range []string{"irtext", "profile", "regalloc", "clone", "strategy", "core", "vm", "server"} {
		m[n+".share"] = metric{share(n), "ratio"}
	}
	// The service's request latencies by class and cache outcome, and
	// its counters; workloads without the service report 0.
	for _, c := range []struct{ class, name string }{
		{"miss", "server.miss_p50_ms"},
		{"program", "server.program_hit_p50_ms"},
		{"function", "server.function_hit_p50_ms"},
		{classBest, "server.best_p50_ms"},
		{classTier, "server.tier_p50_ms"},
	} {
		lat := slices.Clone(rs.classLat[c.class])
		slices.Sort(lat)
		m[c.name] = metric{ms(percentile(lat, 50)), "ms"}
	}
	m["server.response_bytes_per_op"] = metric{float64(rs.all.respBytes) / float64(max(rs.ops, 1)), "B"}
	for _, s := range serviceMetrics {
		m[s.name] = metric{0, s.unit}
	}
	for k, v := range rs.layerExtra {
		m[k] = v
	}
	return m
}
