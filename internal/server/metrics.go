package server

import (
	"sync"
	"time"

	"repro/internal/contentcache"
)

// histBuckets is the number of exponential latency buckets: bucket i
// counts requests with latency <= 1µs<<i, so the range spans 1µs to
// ~131ms with one overflow bucket past the end.
const histBuckets = 18

// histogram is a fixed-bucket exponential latency histogram. It is
// not safe for concurrent use on its own; metrics serializes access.
type histogram struct {
	count    int64
	sumNs    int64
	buckets  [histBuckets]int64
	overflow int64
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.count++
	h.sumNs += ns
	bound := int64(1000)
	for i := 0; i < histBuckets; i++ {
		if ns <= bound {
			h.buckets[i]++
			return
		}
		bound <<= 1
	}
	h.overflow++
}

// HistogramBucket is one latency bucket in a snapshot.
type HistogramBucket struct {
	LeNs  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the serialized form of a latency histogram.
// Buckets with zero counts are elided; the overflow bucket (latency
// beyond the largest bound) reports LeNs -1.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumNs   int64             `json:"sum_ns"`
	AvgNs   int64             `json:"avg_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, SumNs: h.sumNs}
	if h.count > 0 {
		s.AvgNs = h.sumNs / h.count
	}
	bound := int64(1000)
	for i := 0; i < histBuckets; i++ {
		if h.buckets[i] > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LeNs: bound, Count: h.buckets[i]})
		}
		bound <<= 1
	}
	if h.overflow > 0 {
		s.Buckets = append(s.Buckets, HistogramBucket{LeNs: -1, Count: h.overflow})
	}
	return s
}

// RequestCounters counts requests by outcome.
type RequestCounters struct {
	Total      int64 `json:"total"`
	OK         int64 `json:"ok"`
	BadRequest int64 `json:"bad_request"`
	TooLarge   int64 `json:"too_large"`
	Errors     int64 `json:"errors"`
	// Panics counts the errors caused by a pipeline panic, recovered
	// by the handler or contained by a worker pool.
	Panics   int64 `json:"panics"`
	InFlight int64 `json:"in_flight"`
}

// AnalysisCacheStats reports the shared analysis cache and the
// eviction policy bounding it.
type AnalysisCacheStats struct {
	// Len is the number of per-function analysis handles currently
	// retained; LenMax its high-water mark over the process lifetime.
	// The eviction policy keeps Len within Budget plus the functions
	// of requests still in flight.
	Len    int `json:"len"`
	LenMax int `json:"len_max"`
	Budget int `json:"budget"`
	// Hits/Misses count per-function lookups inside the pipeline;
	// Drops counts handles removed by the eviction policy.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Drops  int `json:"drops"`
}

// Snapshot is the /metrics payload: every live counter of the
// service in one deterministic JSON document.
type Snapshot struct {
	UptimeSec     float64            `json:"uptime_sec"`
	Requests      RequestCounters    `json:"requests"`
	ProgramCache  contentcache.Stats `json:"program_cache"`
	FunctionCache contentcache.Stats `json:"function_cache"`
	AnalysisCache AnalysisCacheStats `json:"analysis_cache"`
	Latency       struct {
		Cold   HistogramSnapshot `json:"cold"`
		Cached HistogramSnapshot `json:"cached"`
	} `json:"latency"`
	// StrategyWins counts, per strategy, how many functions it won
	// (lowest modeled cost) across strategy=best placements.
	StrategyWins    map[string]int64 `json:"strategy_wins"`
	PlacedFunctions int64            `json:"placed_functions"`
	// EngineRuns counts run-mode requests per VM engine name, cache
	// hits included.
	EngineRuns map[string]int64 `json:"engine_runs"`
	// Tier counts the tiered pipeline's activity: admitted tier
	// requests (cache hits included), executed tiered runs, runs whose
	// tier-0 quantum expired (a boundary re-placement happened), and
	// functions re-placed at those boundaries.
	Tier TierCounters `json:"tier"`
}

// TierCounters are the tiered pipeline's service counters.
type TierCounters struct {
	Requests   int64 `json:"requests"`
	Runs       int64 `json:"runs"`
	Boundaries int64 `json:"boundaries"`
	Replaced   int64 `json:"replaced"`
}

// metrics is the server's mutable counter state.
type metrics struct {
	mu              sync.Mutex
	start           time.Time
	requests        RequestCounters
	cold, cached    histogram
	wins            map[string]int64
	engineRuns      map[string]int64
	tier            TierCounters
	analysisLenMax  int
	placedFunctions int64
}

func newMetrics() *metrics {
	return &metrics{
		start:      time.Now(),
		wins:       make(map[string]int64),
		engineRuns: make(map[string]int64),
	}
}

func (m *metrics) begin() {
	m.mu.Lock()
	m.requests.Total++
	m.requests.InFlight++
	m.mu.Unlock()
}

// done records a finished request: its HTTP status, whether it was
// served from a cache (program- or function-level), whether a panic
// caused it, and its latency.
func (m *metrics) done(status int, fromCache, panicked bool, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests.InFlight--
	if panicked {
		m.requests.Panics++
	}
	switch {
	case status >= 200 && status < 300:
		m.requests.OK++
		if fromCache {
			m.cached.observe(d)
		} else {
			m.cold.observe(d)
		}
	case status == 413:
		m.requests.TooLarge++
	case status >= 400 && status < 500:
		m.requests.BadRequest++
	default:
		m.requests.Errors++
	}
}

func (m *metrics) win(strategy string) {
	m.mu.Lock()
	m.wins[strategy]++
	m.mu.Unlock()
}

func (m *metrics) engineRun(engine string) {
	m.mu.Lock()
	m.engineRuns[engine]++
	m.mu.Unlock()
}

// tierAdmitted counts a tier request at admission, so cached tiered
// responses appear in the totals alongside executed ones.
func (m *metrics) tierAdmitted() {
	m.mu.Lock()
	m.tier.Requests++
	m.mu.Unlock()
}

// tierRun records an executed tiered run and its boundary outcome.
func (m *metrics) tierRun(boundary bool, replaced int) {
	m.mu.Lock()
	m.tier.Runs++
	if boundary {
		m.tier.Boundaries++
	}
	m.tier.Replaced += int64(replaced)
	m.mu.Unlock()
}

func (m *metrics) placed(functions int, analysisLen int) {
	m.mu.Lock()
	m.placedFunctions += int64(functions)
	if analysisLen > m.analysisLenMax {
		m.analysisLenMax = analysisLen
	}
	m.mu.Unlock()
}
