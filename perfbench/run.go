package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// workload is one benchmark workload after set-up. Its ops run one
// at a time: the benchmark is a single closed-loop client.
type workload interface {
	// minOps is how many ops every run completes, so that the
	// deterministic counts always cover the same inputs; maxOps is how
	// many the workload's inputs allow.
	minOps() int
	maxOps() int
	// inputs is how many distinct inputs the workload holds. A run
	// checks every one of them, so the inputs that fail are the same
	// on every run of a seed.
	inputs() int
	// passLen is how many ops one pass over the inputs takes. Every
	// pass does the same work, so CPU time is compared pass to pass.
	passLen() int
	// op runs operation i, recording spans into t when t is non-nil.
	op(i int, t *tracer) opResult
	// finish runs the checks that need the whole run and returns the
	// failures they find.
	finish() []inputErr
	// beginPass precedes each pass of passLen ops and endRun follows
	// the measured run, for workloads that keep state or counters of
	// their own (the service and its /metrics); endRun adds the
	// per-layer metrics those counters give.
	beginPass(t *tracer)
	endRun(t *tracer, m map[string]metric)
	close()
}

// errWrongOutput marks a failure in which the pipeline returned an
// output that differs from the reference, as opposed to returning an
// error or no output at all.
var errWrongOutput = errors.New("wrong output")

// inputErr is a failure found outside the measured ops, with the
// input it belongs to.
type inputErr struct {
	input int
	err   error
}

// maxLoggedFailures bounds the failures a run describes on stderr.
const maxLoggedFailures = 5

// opResult is what one op reports besides its latency.
type opResult struct {
	// input is the distinct input the op processed.
	input int
	// err says why the op failed; nil means it succeeded.
	err error
	// first marks the first time the op's input is processed; for ops
	// below minOps its counts enter the deterministic totals.
	first bool
	// class labels the op for per-class latency (serve: request class
	// and cache outcome).
	class  string
	counts opCounts
}

// opCounts are the work counts of one op, read from the outputs the
// pipeline returns. All of them are deterministic for a given input.
type opCounts struct {
	// spillCost is the machine-priced dynamic spill overhead.
	spillCost int64
	// irBytes is the IR text the op parsed.
	irBytes int64
	// profileInstrs and runInstrs are VM instructions executed while
	// profiling and in measured runs.
	profileInstrs, runInstrs int64
	// Static inserted-instruction counts from the placement reports.
	spillInstrs, saveRestoreInstrs, jumpBlockInstrs int64
	// Analysis-layer builds (liveness, dominators, loops, PST, seed),
	// split-graph dominator computations and full invalidations.
	builds, splitDom, deltaFull int64
	// respBytes is the response body size (serve).
	respBytes int64
}

func (a *opCounts) add(b opCounts) {
	a.spillCost += b.spillCost
	a.irBytes += b.irBytes
	a.profileInstrs += b.profileInstrs
	a.runInstrs += b.runInstrs
	a.spillInstrs += b.spillInstrs
	a.saveRestoreInstrs += b.saveRestoreInstrs
	a.jumpBlockInstrs += b.jumpBlockInstrs
	a.builds += b.builds
	a.splitDom += b.splitDom
	a.deltaFull += b.deltaFull
	a.respBytes += b.respBytes
}

// opTime is an op's start and end, in ns since the run's start.
type opTime struct{ start, end int64 }

// rateWindow is the length of the windows throughput is measured in.
const rateWindow = time.Second

// runStats is one measured run.
type runStats struct {
	// ops and failed count measured ops; wrong counts wrong outputs,
	// in the measured ops and in finish.
	ops, failed, wrong int
	// inputs is the workload's distinct inputs and failedInputs those
	// that failed at least once, in an op or in finish. Both are the
	// same on every run of a seed, however many ops the run completes.
	inputs       int
	failedInputs map[int]bool
	// passCPU holds, for each complete pass, the process CPU time of
	// each of its chunks in ns; passRef holds the same scaled to the
	// reference speed (see refLoop), and refShots the shots taken.
	passCPU, passRef [][]float64
	refShots         []float64
	pass             int
	elapsed          time.Duration
	lat              []time.Duration
	classLat         map[string][]time.Duration
	times            []opTime
	// all sums the counts of every op and traced those of the traced
	// ops; det sums those of first-pass ops below minOps, and detOps is
	// how many there were. det and detOps are identical on every run
	// of a seed.
	all, traced, det opCounts
	detOps           int
	allocBytes       uint64
	gcCycles         uint64
	// passRSS is the peak resident set size of each complete pass,
	// in bytes.
	passRSS    []float64
	spans      []span
	layerExtra map[string]metric
	logged     int
}

// run drives w for d, then until minOps ops are done. On a traced run
// the odd-numbered one-second windows record spans and the even ones
// do not, so traced and untraced throughput, compared for the tracing
// overhead, see the same machine conditions.
func run(w workload, d time.Duration, traced bool) *runStats {
	rs := &runStats{layerExtra: map[string]metric{}, classLat: map[string][]time.Duration{},
		inputs: w.inputs(), failedInputs: map[int]bool{}}
	var t *tracer
	if traced {
		t = newTracer(time.Now())
	}
	// Collect the set-up's garbage and return it to the OS, so the
	// run's peak RSS and GC counts start from the workload's live data.
	debug.FreeOSMemory()
	rss := startRSS()
	heap0, gc0 := readRuntime()
	start := time.Now()
	if t != nil {
		t.t0 = start
	}
	pass := w.passLen()
	rs.pass = pass
	chunkStart := make([]bool, pass)
	for k := range min(chunksPerPass, pass) {
		chunkStart[k*pass/min(chunksPerPass, pass)] = true
	}
	// A shot of the reference loop runs before the first chunk and
	// after each chunk, outside the chunks' CPU times.
	ref := newRefLoop()
	ref.shot()
	shot := ref.shot()
	var chunkCPU time.Duration
	var cpuChunks, refChunks []float64
	for i := 0; i < w.maxOps(); i++ {
		since := time.Since(start)
		p := i % pass
		if i > 0 && chunkStart[p] {
			c := cpuTime() - chunkCPU
			next := ref.shot()
			cpuChunks = append(cpuChunks, float64(c))
			refChunks = append(refChunks, float64(c)/slowdown(shot, next))
			rs.refShots = append(rs.refShots, float64(next))
			shot = next
			if p == 0 {
				rs.passCPU = append(rs.passCPU, cpuChunks)
				rs.passRef = append(rs.passRef, refChunks)
				rs.passRSS = append(rs.passRSS, rss.take())
				cpuChunks, refChunks = nil, nil
			}
		}
		if i >= w.minOps() && since >= d {
			break
		}
		if p == 0 {
			w.beginPass(t)
			rss.take()
		}
		if chunkStart[p] {
			chunkCPU = cpuTime()
		}
		var ot *tracer
		if traced && (since/rateWindow)%2 == 1 {
			ot = t
		}
		var opSpan int
		if ot != nil {
			opSpan = ot.begin("op", i)
		}
		t0 := time.Now()
		r := w.op(i, ot)
		lat := time.Since(t0)
		if ot != nil {
			ot.end(opSpan)
		}
		begin := t0.Sub(start).Nanoseconds()
		rs.times = append(rs.times, opTime{begin, begin + lat.Nanoseconds()})
		rs.lat = append(rs.lat, lat)
		if r.class != "" {
			rs.classLat[r.class] = append(rs.classLat[r.class], lat)
		}
		if r.err != nil {
			rs.failed++
			rs.failedInputs[r.input] = true
			rs.countFailure(i, r.err)
		}
		rs.all.add(r.counts)
		if ot != nil {
			rs.traced.add(r.counts)
		}
		if r.first && i < w.minOps() {
			rs.det.add(r.counts)
			rs.detOps++
		}
	}
	rs.elapsed = time.Since(start)
	heap1, gc1 := readRuntime()
	rs.allocBytes, rs.gcCycles = heap1-heap0, gc1-gc0
	rss.finish()
	rs.ops = len(rs.times)
	w.endRun(t, rs.layerExtra)
	for _, f := range w.finish() {
		rs.failedInputs[f.input] = true
		rs.countFailure(-1, f.err)
	}
	if t != nil {
		rs.spans = t.spans
	}
	return rs
}

// opsPerS is the median throughput over the run's whole one-second
// windows of the given kind (all, traced or untraced), each op
// credited to a window by the share of its duration that falls in it.
// The median keeps bursts of contention from the machine's other
// tenants out of the figure. Runs shorter than three such windows
// report ops over elapsed time.
func (rs *runStats) opsPerS(keep func(window int64) bool) float64 {
	win := rateWindow.Nanoseconds()
	n := rs.elapsed.Nanoseconds() / win
	rates := make([]float64, n)
	for _, t := range rs.times {
		for k := t.start / win; k < n && k*win < t.end; k++ {
			if lo, hi := max(t.start, k*win), min(t.end, (k+1)*win); hi > lo {
				rates[k] += float64(hi-lo) / float64(max(t.end-t.start, 1))
			}
		}
	}
	var kept []float64
	for k, r := range rates {
		if keep(int64(k)) {
			kept = append(kept, r)
		}
	}
	if len(kept) < 3 {
		return float64(rs.ops) / rs.elapsed.Seconds()
	}
	slices.Sort(kept)
	return kept[len(kept)/2] / rateWindow.Seconds()
}

func allWindows(int64) bool        { return true }
func tracedWindows(k int64) bool   { return k%2 == 1 }
func untracedWindows(k int64) bool { return k%2 == 0 }

// countFailure counts a wrong output and describes the first few
// failures on stderr. op is -1 for failures found after the run.
func (rs *runStats) countFailure(op int, err error) {
	if errors.Is(err, errWrongOutput) {
		rs.wrong++
	}
	if rs.logged < maxLoggedFailures {
		rs.logged++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", op, err)
	}
}

// cpuTime is the CPU time the whole process has used: every thread,
// so the collector and, on serve, the in-process service are counted.
// Unlike wall time, it leaves out the time the machine's other tenants
// take from this one.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// Linux clock ids for clock_gettime. Unlike getrusage, which can lag
// by a scheduler tick for a running thread, these clocks read the CPU
// time to the nanosecond.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// chunksPerPass is how many chunks a pass is cut into for CPU timing.
const chunksPerPass = 12

// msPerOp is the CPU time per op of a typical pass, from the chunk
// times of every complete pass (passCPU or passRef): each chunk's
// median over the passes, summed, per op. A chunk holds the same
// inputs in every pass, and the median keeps bursts of contention in a
// minority of passes out of the figure.
func msPerOp(passes [][]float64, pass int) float64 {
	if len(passes) == 0 {
		return 0
	}
	var sum float64
	for k := range passes[0] {
		v := make([]float64, len(passes))
		for j, chunks := range passes {
			v[j] = chunks[k]
		}
		sum += median(v)
	}
	return sum / float64(pass) / 1e6
}

// median returns the median of v, averaging the middle two of an even
// count. It sorts v.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

// readRuntime returns the process's cumulative heap bytes allocated
// and completed GC cycles.
func readRuntime() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// rssSampler tracks the peak resident set size of the process by
// sampling /proc/self/statm.
type rssSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	peak       float64 // bytes since the last take
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.mu.Lock()
			s.peak = max(s.peak, rssBytes())
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// take returns the peak since the previous take and starts a new one.
func (s *rssSampler) take() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := max(s.peak, rssBytes())
	s.peak = 0
	return peak
}

// finish stops the sampler and waits for it to end.
func (s *rssSampler) finish() {
	close(s.stop)
	<-s.done
}

// rssBytes is the process's current resident set size, or 0 where
// /proc is unavailable.
func rssBytes() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// tail returns the highest of the standard percentiles that has at
// least ten samples beyond it, and its value.
func tail(sorted []time.Duration) (pct float64, v time.Duration) {
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, percentile(sorted, pct)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEndMetrics are the metrics a user of the pipeline sees.
func endToEndMetrics(rs *runStats, setupS float64) map[string]metric {
	return map[string]metric{
		"ref_cpu_ms_per_op":  {msPerOp(rs.passRef, rs.pass), "ms"},
		"ok_ratio":           {1 - float64(len(rs.failedInputs))/float64(max(rs.inputs, 1)), "ratio"},
		"alloc_bytes_per_op": {float64(rs.allocBytes) / float64(max(rs.ops, 1)), "B"},
		"peak_rss_mb":        {median(slices.Clone(rs.passRSS)) / 1e6, "MB"},
		"spill_cost":         {float64(rs.det.spillCost), "count"},
		"setup_s":            {setupS, "s"},
	}
}
