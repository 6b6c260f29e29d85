// Package server implements spill placement as a service: an
// HTTP/JSON front end over the spillopt pipeline. POST /v1/place
// accepts a textual-IR program, runs profile → allocate → place →
// report, and returns per-function placements with machine-priced
// overhead breakdowns. Results are content-cached at two levels
// (whole program and single function, see internal/contentcache), the
// shared analysis cache is bounded by an LRU eviction policy, and
// /metrics exposes every live counter. /healthz is a benchdiff-style
// self-check: it pushes a canned program through the real pipeline
// and reports invariant violations as findings.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/contentcache"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// Config sizes the service's limits and caches. Zero fields take the
// defaults documented on each field.
type Config struct {
	// MaxBodyBytes caps the request body; larger submissions get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one /v1/place request end to end (503 on
	// expiry). Default 15s; negative disables.
	RequestTimeout time.Duration
	// MaxFuncVirts caps each function's virtual register numbering: a
	// function naming vN with N >= MaxFuncVirts gets 413 before it is
	// profiled or allocated, since the VM frame and the allocator's
	// interference graph both grow with it. Default 8192; negative
	// disables (regalloc.MaxNodes still bounds the allocator).
	MaxFuncVirts int
	// MaxVMSteps bounds every VM execution (profiling and runs) so a
	// runaway submission costs bounded CPU. Default 1<<26; negative
	// uses the VM's own (much larger) default.
	MaxVMSteps int64
	// Parallelism is the per-request worker pool for per-function
	// work. Default 1: concurrent requests provide the parallelism,
	// and an oversubscribed pool per request would fight them.
	Parallelism int

	// ProgramCacheEntries/Bytes bound the program-level result cache
	// (canonical program → response bytes). Defaults 4096 / 256 MiB.
	ProgramCacheEntries int
	ProgramCacheBytes   int64
	// FunctionCacheEntries/Bytes bound the function-level report cache.
	// Defaults 65536 / 64 MiB.
	FunctionCacheEntries int
	FunctionCacheBytes   int64
	// AnalysisBudget bounds the shared analysis.Cache: an LRU over
	// function handles drops the least recently placed function's
	// analyses once more than this many are retained. Default 512.
	AnalysisBudget int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxFuncVirts == 0 {
		c.MaxFuncVirts = 1 << 13
	}
	if c.MaxVMSteps == 0 {
		c.MaxVMSteps = 1 << 26
	} else if c.MaxVMSteps < 0 {
		c.MaxVMSteps = 0
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.ProgramCacheEntries == 0 {
		c.ProgramCacheEntries = 4096
	}
	if c.ProgramCacheBytes == 0 {
		c.ProgramCacheBytes = 256 << 20
	}
	if c.FunctionCacheEntries == 0 {
		c.FunctionCacheEntries = 65536
	}
	if c.FunctionCacheBytes == 0 {
		c.FunctionCacheBytes = 64 << 20
	}
	if c.AnalysisBudget == 0 {
		c.AnalysisBudget = 512
	}
	return c
}

// PlaceRequest is the /v1/place request body.
type PlaceRequest struct {
	// IR is the program in the textual IR format (README syntax).
	IR string `json:"ir"`
	// Machine names a machine cost preset (default "classic", the
	// paper's unit-cost model; see spillopt.Machines).
	Machine string `json:"machine,omitempty"`
	// Strategy names a placement strategy (default "hierarchical-jump")
	// or "best": price every strategy's placement per function and
	// apply the cheapest overall.
	Strategy string `json:"strategy,omitempty"`
	// Alloc names the allocation spill-pricing mode (default "uniform",
	// the paper's unit-weight spill costs; "machine" prices each spill
	// candidate by the preset's store/load latencies). Allocation shapes
	// every placement downstream, so the mode is part of both cache
	// keys.
	Alloc string `json:"alloc,omitempty"`
	// Args are the profiling (and, with Run, execution) arguments.
	Args []int64 `json:"args,omitempty"`
	// Run additionally executes the placed program and reports the
	// measured result.
	Run bool `json:"run,omitempty"`
	// Engine names the VM engine executions use: "regcode" (the
	// default) or "tree", the reference interpreter. The engines are
	// parity-tested to identical results, so the option only changes
	// how fast run mode executes.
	Engine string `json:"engine,omitempty"`
	// Emit additionally returns the placed program's IR text.
	Emit bool `json:"emit,omitempty"`
	// Tier runs the tiered pipeline instead of profile-then-place: the
	// program is placed from static estimates, tier 0 executes under a
	// step quantum with edge profiling, and at the quantum boundary the
	// functions are re-aligned and re-placed from the measured weights
	// before tier 1 finishes the run. Implies Run (tiering is an
	// execution-time optimization; Args are the execution arguments),
	// and the response's function reports describe the final tier-1
	// placement.
	Tier bool `json:"tier,omitempty"`
	// Quantum overrides the tier-0 step quantum (Tier only; 0 means the
	// pipeline default).
	Quantum int64 `json:"quantum,omitempty"`
}

// FunctionEntry is one function's placement report plus the content
// hash the function-level cache keys on.
type FunctionEntry struct {
	Hash string `json:"hash"`
	spillopt.FunctionReport
}

// RunResult reports a measured execution of the placed program.
type RunResult struct {
	Value    int64 `json:"value"`
	Instrs   int64 `json:"instrs"`
	Overhead int64 `json:"overhead"`
	Cost     int64 `json:"cost"`
}

// PlaceResponse is the /v1/place success body.
type PlaceResponse struct {
	Machine  string `json:"machine"`
	Strategy string `json:"strategy"`
	// StrategyCosts (strategy=best only) is each strategy's modeled
	// total cost over all functions.
	StrategyCosts map[string]int64 `json:"strategy_costs,omitempty"`
	Functions     []FunctionEntry  `json:"functions"`
	TotalOverhead int64            `json:"total_overhead"`
	TotalCost     int64            `json:"total_cost"`
	Run           *RunResult       `json:"run,omitempty"`
	Text          string           `json:"text,omitempty"`
}

// Cache outcomes reported in the X-Cache response header. Bodies are
// byte-identical across outcomes, so caching never changes a result.
const (
	cacheMiss     = "miss"
	cacheProgram  = "program"
	cacheFunction = "function"
)

// Server is the service state: the two content caches, the bounded
// shared analysis cache, and the metrics. It has no background
// goroutines; lifecycle is the HTTP server's (see cmd/spillserve).
type Server struct {
	cfg Config

	// ac is shared across every request's pipeline; analysisLRU is the
	// eviction policy bounding it — each finished request registers its
	// functions, and evicted functions drop their analysis handles.
	ac          *analysis.Cache
	analysisLRU *contentcache.Cache[*ir.Func, struct{}]

	progCache *contentcache.Cache[string, []byte]
	funcCache *contentcache.Cache[funcKey, FunctionEntry]

	metrics *metrics

	// canned is the healthz self-check corpus: a seeded generated
	// program exercised through the real pipeline and caches.
	canned     string
	cannedArgs []int64

	// allocate is the pipeline's allocation step; tests swap it to
	// inject failures the real pipeline cannot be driven into.
	allocate func(*spillopt.Program) error
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, ac: analysis.NewCache(), metrics: newMetrics()}
	s.analysisLRU = contentcache.New(cfg.AnalysisBudget, 0, func(f *ir.Func, _ struct{}) { s.ac.Drop(f) })
	s.progCache = contentcache.New[string, []byte](cfg.ProgramCacheEntries, cfg.ProgramCacheBytes, nil)
	s.funcCache = contentcache.New[funcKey, FunctionEntry](cfg.FunctionCacheEntries, cfg.FunctionCacheBytes, nil)
	s.canned = irtext.Print(irgen.Generate(1, irgen.Small()))
	s.cannedArgs = []int64{5}
	s.allocate = (*spillopt.Program).Allocate
	return s
}

// Handler returns the service's routes: POST /v1/place, GET /metrics,
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	var place http.Handler = http.HandlerFunc(s.handlePlace)
	if s.cfg.RequestTimeout > 0 {
		place = http.TimeoutHandler(place, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	}
	mux.Handle("POST /v1/place", place)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handlePlace serves one /v1/place request. A panic anywhere in the
// pipeline is recovered here into a 500 with a JSON error, so the
// client gets an answer, the in-flight gauge comes back down, and the
// panic is counted in /metrics.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.begin()
	status, fromCache, panicked := http.StatusInternalServerError, false, true
	defer func() {
		if v := recover(); v != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: panic: %v", v))
		}
		s.metrics.done(status, fromCache, panicked, time.Since(start))
	}()
	status, fromCache, panicked = s.servePlace(w, r)
}

func (s *Server) servePlace(w http.ResponseWriter, r *http.Request) (status int, fromCache, panicked bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return http.StatusRequestEntityTooLarge, false, false
		}
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return http.StatusBadRequest, false, false
	}
	var req PlaceRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return http.StatusBadRequest, false, false
	}
	if strings.TrimSpace(req.IR) == "" {
		writeError(w, http.StatusBadRequest, "empty ir")
		return http.StatusBadRequest, false, false
	}
	o := s.place(&req)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", o.cache)
	w.WriteHeader(o.status)
	w.Write(o.body)
	return o.status, o.cache != cacheMiss, o.panicked
}

// placeOutcome is one placement's result, independent of HTTP
// plumbing so the healthz self-check can reuse the exact request path.
type placeOutcome struct {
	status int
	body   []byte
	cache  string
	// panicked marks a failure from a pipeline panic that a worker
	// pool contained (par.PanicError).
	panicked bool
}

// fail builds an error outcome. A panic contained by a worker pool is
// the service's fault whatever stage raised it, so it is a 500 even
// where the caller would report a failing input as 4xx.
func fail(status int, err error) placeOutcome {
	var pe *par.PanicError
	panicked := errors.As(err, &pe)
	if panicked {
		status = http.StatusInternalServerError
	}
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	return placeOutcome{status: status, body: body, cache: cacheMiss, panicked: panicked}
}

// place runs one placement request through the caches and, on miss,
// the full pipeline. Response bodies are deterministic functions of
// the request, which is what makes content-addressed caching sound:
// a hit returns exactly the bytes a fresh run would produce.
func (s *Server) place(req *PlaceRequest) placeOutcome {
	if req.Machine == "" {
		req.Machine = "classic"
	}
	if req.Strategy == "" {
		req.Strategy = "hierarchical-jump"
	}
	if req.Alloc == "" {
		req.Alloc = "uniform"
	}
	allocMachine, err := spillopt.ParseAllocMode(req.Alloc)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	// Tiering is an execution-time optimization: it implies Run, and
	// the normalization happens before cache keying so {tier} and
	// {tier, run} alias one entry.
	if req.Tier {
		req.Run = true
	}
	if req.Engine == "" {
		req.Engine = "regcode"
	}
	if _, err := vm.ParseEngine(req.Engine); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if !req.Tier && req.Quantum != 0 {
		return fail(http.StatusBadRequest, errors.New("quantum requires tier"))
	}
	if req.Run {
		// Counted at admission, not execution, so cache hits show up in
		// the per-engine totals too.
		s.metrics.engineRun(req.Engine)
	}
	if req.Tier {
		// Counted at admission too, so cached tiered responses still
		// show up in the tier totals.
		s.metrics.tierAdmitted()
	}
	best := req.Strategy == "best"
	var strat spillopt.Strategy
	if !best {
		var err error
		if strat, err = spillopt.ParseStrategy(req.Strategy); err != nil {
			return fail(http.StatusBadRequest, err)
		}
	}
	// Program-level cache, raw tier: keyed on the submitted text
	// verbatim, so an exact resubmission skips parsing entirely.
	rawKey := programKey(req.IR, req)
	if body, ok := s.progCache.Get(rawKey); ok {
		return placeOutcome{status: http.StatusOK, body: body, cache: cacheProgram}
	}

	prog, err := spillopt.ParseProgram(req.IR)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if limit := s.cfg.MaxFuncVirts; limit > 0 {
		for _, f := range prog.IRFuncs() {
			if f.NumVirt > limit {
				return fail(http.StatusRequestEntityTooLarge, fmt.Errorf(
					"function %s names virtual register v%d, limit v%d", f.Name, f.NumVirt-1, limit-1))
			}
		}
	}
	if err := prog.UseMachine(req.Machine); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if allocMachine {
		// Validated above, so a failure here is ordering, not input.
		if err := prog.UseMachineAllocation(); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	}

	// Canonical tier: keyed on the re-printed text, so formatting
	// variants of the same program share one entry. For already
	// canonical submissions both tiers are one entry.
	pkey := programKey(prog.Text(), req)
	if pkey != rawKey {
		if body, ok := s.progCache.Get(pkey); ok {
			s.progCache.Put(rawKey, body, int64(len(body)))
			return placeOutcome{status: http.StatusOK, body: body, cache: cacheProgram}
		}
	}

	prog.UseAnalysisCache(s.ac)
	prog.Parallelism = s.cfg.Parallelism
	prog.MaxSteps = s.cfg.MaxVMSteps
	if err := prog.UseEngine(req.Engine); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if req.Tier {
		// The tiered pipeline starts from static estimates; the measured
		// profile arrives at the tier boundary during Run.
		if err := prog.UseTiering(req.Quantum); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	} else if err := prog.Profile(req.Args...); err != nil {
		return fail(http.StatusBadRequest, err)
	}

	// Function hashes are taken after Profile (the digest must cover
	// the edge weights placement optimizes) and before Allocate (which
	// rewrites the body). See funcHash.
	funcs := prog.IRFuncs()
	hashes := make([]string, len(funcs))
	for i, f := range funcs {
		hashes[i] = funcHash(f)
	}

	// Function-level cache: a program the service never saw can still
	// be assembled entirely from per-function results (same bodies and
	// weights under another definition order, a superset program, ...).
	// Run/emit/best responses carry whole-program state, so only plain
	// placements use this level.
	cacheable := !best && !req.Run && !req.Emit
	if cacheable {
		if entries, ok := s.lookupFunctions(hashes, req); ok {
			body, o := s.marshal(assemble(req, req.Strategy, entries, nil))
			if o.status != http.StatusOK {
				return o
			}
			s.putProgram(pkey, rawKey, body)
			return placeOutcome{status: http.StatusOK, body: body, cache: cacheFunction}
		}
	}

	// Full pipeline. However it exits, register the functions with the
	// eviction policy: any analysis handles created below stay bounded.
	defer func() {
		for _, f := range funcs {
			s.analysisLRU.Put(f, struct{}{}, 1)
		}
		s.metrics.placed(len(funcs), s.ac.Len())
	}()
	if err := s.allocate(prog); err != nil {
		if errors.Is(err, regalloc.ErrTooLarge) {
			return fail(http.StatusRequestEntityTooLarge, err)
		}
		return fail(http.StatusBadRequest, err)
	}
	stratName := req.Strategy
	var stratCosts map[string]int64
	if best {
		if stratName, stratCosts, err = s.pickBest(prog); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		if strat, err = spillopt.ParseStrategy(stratName); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	}
	// Input-driven failures end at Allocate: placement or reporting
	// errors on an allocated program are pipeline invariant violations.
	// Under tiering Place only records the strategy; the placement
	// itself happens inside Run at the tier boundary, so Run must
	// precede Report for the reports to describe the final placement.
	if err := prog.Place(strat); err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	var runRes *spillopt.Result
	if req.Run {
		res, err := prog.Run(req.Args...)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		runRes = res
	}
	if tr := prog.TierReport(); tr != nil {
		s.metrics.tierRun(tr.Boundary, tr.Replaced)
	}
	reports, err := prog.Report()
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	entries := make([]FunctionEntry, len(reports))
	for i, r := range reports {
		entries[i] = FunctionEntry{Hash: hashes[i], FunctionReport: r}
	}
	resp := assemble(req, stratName, entries, stratCosts)
	if runRes != nil {
		resp.Run = &RunResult{Value: runRes.Value, Instrs: runRes.Instrs, Overhead: runRes.Overhead, Cost: runRes.Cost}
	}
	if req.Emit {
		resp.Text = prog.Text()
	}
	body, o := s.marshal(resp)
	if o.status != http.StatusOK {
		return o
	}
	if cacheable {
		for i := range entries {
			s.funcCache.Put(funcKey{hashes[i], req.Machine, req.Strategy, req.Alloc}, entries[i], entrySize(&entries[i]))
		}
	}
	s.putProgram(pkey, rawKey, body)
	return placeOutcome{status: http.StatusOK, body: body, cache: cacheMiss}
}

// putProgram stores a response under its canonical program key and,
// when the submission wasn't already canonical, the raw-text key too.
func (s *Server) putProgram(pkey, rawKey string, body []byte) {
	s.progCache.Put(pkey, body, int64(len(body)))
	if rawKey != pkey {
		s.progCache.Put(rawKey, body, int64(len(body)))
	}
}

// pickBest prices every strategy's placement per function (without
// mutating the program) and returns the name with the lowest total,
// plus all totals. Per-function winners feed the strategy_wins
// metric; functions no strategy can improve (all costs zero) don't
// count as wins. Ties go to declaration order, matching the
// evaluation tools.
func (s *Server) pickBest(prog *spillopt.Program) (string, map[string]int64, error) {
	names := spillopt.Strategies()
	totals := make(map[string]int64, len(names))
	for _, fn := range prog.Functions() {
		bestName, bestCost, maxCost := "", int64(0), int64(0)
		for _, sn := range names {
			st, err := spillopt.ParseStrategy(sn)
			if err != nil {
				return "", nil, err
			}
			c, err := prog.PlacementCost(fn, st)
			if err != nil {
				return "", nil, fmt.Errorf("pricing %s under %s: %w", fn, sn, err)
			}
			totals[sn] += c
			if bestName == "" || c < bestCost {
				bestName, bestCost = sn, c
			}
			if c > maxCost {
				maxCost = c
			}
		}
		if maxCost > 0 {
			s.metrics.win(bestName)
		}
	}
	winner, winnerCost := "", int64(0)
	for _, sn := range names {
		if winner == "" || totals[sn] < winnerCost {
			winner, winnerCost = sn, totals[sn]
		}
	}
	return winner, totals, nil
}

func (s *Server) lookupFunctions(hashes []string, req *PlaceRequest) ([]FunctionEntry, bool) {
	entries := make([]FunctionEntry, len(hashes))
	for i, h := range hashes {
		e, ok := s.funcCache.Get(funcKey{hash: h, machine: req.Machine, strategy: req.Strategy, alloc: req.Alloc})
		if !ok {
			return nil, false
		}
		entries[i] = e
	}
	return entries, true
}

func assemble(req *PlaceRequest, stratName string, entries []FunctionEntry, costs map[string]int64) *PlaceResponse {
	resp := &PlaceResponse{
		Machine:       req.Machine,
		Strategy:      stratName,
		StrategyCosts: costs,
		Functions:     entries,
	}
	for i := range entries {
		resp.TotalOverhead += entries[i].Overhead
		resp.TotalCost += entries[i].Cost
	}
	return resp
}

func (s *Server) marshal(resp *PlaceResponse) ([]byte, placeOutcome) {
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, fail(http.StatusInternalServerError, err)
	}
	return body, placeOutcome{status: http.StatusOK}
}

// entrySize approximates a FunctionEntry's in-memory footprint for
// the byte budget; exactness doesn't matter, monotonicity does.
func entrySize(e *FunctionEntry) int64 {
	return int64(len(e.Hash)+len(e.Function)) + 120
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

func (s *Server) snapshot() Snapshot {
	var sn Snapshot
	m := s.metrics
	m.mu.Lock()
	sn.UptimeSec = time.Since(m.start).Seconds()
	sn.Requests = m.requests
	sn.Latency.Cold = m.cold.snapshot()
	sn.Latency.Cached = m.cached.snapshot()
	sn.StrategyWins = maps.Clone(m.wins)
	sn.EngineRuns = maps.Clone(m.engineRuns)
	sn.Tier = m.tier
	sn.PlacedFunctions = m.placedFunctions
	lenMax := m.analysisLenMax
	m.mu.Unlock()
	sn.ProgramCache = s.progCache.Stats()
	sn.FunctionCache = s.funcCache.Stats()
	hits, misses := s.ac.Stats()
	sn.AnalysisCache = AnalysisCacheStats{
		Len:    s.ac.Len(),
		LenMax: lenMax,
		Budget: s.cfg.AnalysisBudget,
		Hits:   hits,
		Misses: misses,
		Drops:  s.ac.Drops(),
	}
	return sn
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	findings := s.SelfCheck()
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	if len(findings) > 0 {
		status = http.StatusInternalServerError
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		OK       bool     `json:"ok"`
		Findings []string `json:"findings,omitempty"`
	}{OK: len(findings) == 0, Findings: findings})
}

// SelfCheck is the healthz body: it submits a canned generated
// program through the real request path (pipeline and caches) and
// cross-checks service invariants, returning violations as findings —
// empty means healthy. The checks: the pipeline succeeds; identical
// resubmission is byte-identical and a program-cache hit; and the
// paper's core claim holds — the hierarchical placement's priced cost
// never exceeds the entry/exit baseline's.
func (s *Server) SelfCheck() []string {
	var findings []string
	hj := PlaceRequest{IR: s.canned, Strategy: "hierarchical-jump", Args: s.cannedArgs}
	o1 := s.place(&hj)
	hj2 := hj
	o2 := s.place(&hj2)
	switch {
	case o1.status != http.StatusOK:
		findings = append(findings, fmt.Sprintf("canned placement failed: status %d: %s", o1.status, o1.body))
	case o2.status != http.StatusOK:
		findings = append(findings, fmt.Sprintf("canned resubmission failed: status %d: %s", o2.status, o2.body))
	default:
		if !bytes.Equal(o1.body, o2.body) {
			findings = append(findings, "identical resubmission produced different bytes")
		}
		if o2.cache != cacheProgram {
			findings = append(findings, fmt.Sprintf("identical resubmission missed the program cache (%s)", o2.cache))
		}
	}
	ee := PlaceRequest{IR: s.canned, Strategy: "entry-exit", Args: s.cannedArgs}
	o3 := s.place(&ee)
	if o3.status != http.StatusOK {
		findings = append(findings, fmt.Sprintf("entry-exit baseline failed: status %d: %s", o3.status, o3.body))
	} else if o1.status == http.StatusOK {
		var rh, re PlaceResponse
		if err := json.Unmarshal(o1.body, &rh); err != nil {
			findings = append(findings, "hierarchical response does not decode: "+err.Error())
		} else if err := json.Unmarshal(o3.body, &re); err != nil {
			findings = append(findings, "entry-exit response does not decode: "+err.Error())
		} else if rh.TotalCost > re.TotalCost {
			findings = append(findings, fmt.Sprintf(
				"hierarchical cost %d exceeds entry-exit baseline %d", rh.TotalCost, re.TotalCost))
		}
	}
	return findings
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
