package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
	"repro/internal/regalloc"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, req PlaceRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// testProgram is a seeded generated program plus profiling args, the
// same corpus loadgen uses.
func testProgram(seed uint64) string {
	return irtext.Print(irgen.Generate(seed, irgen.Small()))
}

// TestPlaceMatchesDirectPipeline: the service's response must be
// byte-identical to the JSON assembled from a direct spillopt run of
// the same program — the service adds transport and caching, never
// different results.
func TestPlaceMatchesDirectPipeline(t *testing.T) {
	src := testProgram(3)
	args := []int64{5}

	// Direct pipeline, mirroring the server's response assembly.
	prog, err := spillopt.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.UseMachine("classic"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Profile(args...); err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, f := range prog.IRFuncs() {
		hashes = append(hashes, funcHash(f))
	}
	if err := prog.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := prog.Place(spillopt.HierarchicalJump); err != nil {
		t.Fatal(err)
	}
	reports, err := prog.Report()
	if err != nil {
		t.Fatal(err)
	}
	want := &PlaceResponse{Machine: "classic", Strategy: "hierarchical-jump"}
	for i, r := range reports {
		want.Functions = append(want.Functions, FunctionEntry{Hash: hashes[i], FunctionReport: r})
		want.TotalOverhead += r.Overhead
		want.TotalCost += r.Cost
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, PlaceRequest{IR: src, Args: args})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, wantBody) {
		t.Errorf("service response differs from direct pipeline:\n got %s\nwant %s", got, wantBody)
	}
	if c := resp.Header.Get("X-Cache"); c != cacheMiss {
		t.Errorf("first submission X-Cache = %q, want %q", c, cacheMiss)
	}

	// Identical resubmission: byte-identical and a program-cache hit.
	resp2, got2 := post(t, ts, PlaceRequest{IR: src, Args: args})
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got, got2) {
		t.Errorf("resubmission differs: status %d", resp2.StatusCode)
	}
	if c := resp2.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("resubmission X-Cache = %q, want %q", c, cacheProgram)
	}
}

// TestReorderedProgramHitsFunctionCache: reversing the definition
// order changes the canonical program (program-cache miss) but not
// the per-function bodies or weights, so the response is assembled
// entirely from function-cache hits — and agrees with the original's
// per-function reports.
func TestReorderedProgramHitsFunctionCache(t *testing.T) {
	src := testProgram(4)
	prog, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reordered := irtext.Print(reverseFuncs(prog))
	if reordered == src {
		t.Fatal("reordering did not change the text")
	}

	s, ts := newTestServer(t, Config{})
	resp1, body1 := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts, PlaceRequest{IR: reordered, Args: []int64{5}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if c := resp2.Header.Get("X-Cache"); c != cacheFunction {
		t.Errorf("reordered submission X-Cache = %q, want %q", c, cacheFunction)
	}
	var r1, r2 PlaceResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost != r2.TotalCost || len(r1.Functions) != len(r2.Functions) {
		t.Errorf("reordered totals differ: %d vs %d", r1.TotalCost, r2.TotalCost)
	}
	byName := map[string]FunctionEntry{}
	for _, e := range r1.Functions {
		byName[e.Function] = e
	}
	for _, e := range r2.Functions {
		if byName[e.Function] != e {
			t.Errorf("function %s entry differs across orderings", e.Function)
		}
	}
	if st := s.funcCache.Stats(); st.Hits != int64(len(r1.Functions)) {
		t.Errorf("function cache hits = %d, want %d", st.Hits, len(r1.Functions))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    PlaceRequest
		status int
		substr string
	}{
		{"malformed ir", PlaceRequest{IR: "func main( {"}, 400, "error"},
		{"empty ir", PlaceRequest{}, 400, "empty ir"},
		{"unknown strategy", PlaceRequest{IR: testProgram(5), Strategy: "nonsense", Args: []int64{5}}, 400, "unknown strategy"},
		{"unknown machine", PlaceRequest{IR: testProgram(5), Machine: "vax", Args: []int64{5}}, 400, "error"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(string(body), tc.substr) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.substr)
		}
	}

	// Not JSON at all.
	resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d, want 400", resp.StatusCode)
	}

	// Oversized body → 413 (dedicated server with a tight limit).
	_, tsSmall := newTestServer(t, Config{MaxBodyBytes: 256})
	big := PlaceRequest{IR: strings.Repeat("# padding\n", 64) + testProgram(5)}
	resp2, body2 := post(t, tsSmall, big)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", resp2.StatusCode, body2)
	}

	// A runaway program hits the step budget, not the CPU.
	_, ts2 := newTestServer(t, Config{MaxVMSteps: 100})
	resp3, body3 := post(t, ts2, PlaceRequest{IR: testProgram(5), Args: []int64{5}})
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body3), "step") {
		t.Errorf("step-limited program: status %d body %s, want 400 with step-limit error", resp3.StatusCode, body3)
	}
}

// TestVirtualRegisterLimits: a function naming a virtual register past
// MaxFuncVirts is refused with 413 before it is profiled or allocated;
// with the cap off, a sparse name is still cheap (the allocator
// renumbers it), and a function too large for the allocator's graph
// gets 413 from regalloc.ErrTooLarge instead of a matrix.
func TestVirtualRegisterLimits(t *testing.T) {
	sparse := "main main\n\nfunc main(v0) {\nentry:\n\tv1000000 = const 7\n\tret v1000000\n}\n"

	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: sparse, Args: []int64{1}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "v1000000") {
		t.Errorf("v1000000 under the default cap: status %d body %s, want 413 naming the register", resp.StatusCode, body)
	}

	_, tsOff := newTestServer(t, Config{MaxFuncVirts: -1})
	resp, body = post(t, tsOff, PlaceRequest{IR: sparse, Args: []int64{1}, Run: true})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"value":7`) {
		t.Errorf("v1000000 with the cap off: status %d body %s, want 200 returning 7", resp.StatusCode, body)
	}

	var wide strings.Builder
	wide.WriteString("main main\n\nfunc main(v0) {\nentry:\n")
	for i := 1; i <= regalloc.MaxNodes; i++ {
		fmt.Fprintf(&wide, "\tv%d = const %d\n", i, i)
	}
	fmt.Fprintf(&wide, "\tret v%d\n}\n", regalloc.MaxNodes)
	resp, body = post(t, tsOff, PlaceRequest{IR: wide.String(), Args: []int64{1}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "too large") {
		t.Errorf("function past regalloc.MaxNodes: status %d body %s, want 413 from the allocator", resp.StatusCode, body)
	}
}

// TestBestStrategy: strategy=best prices all strategies, applies the
// cheapest, and reports every total.
func TestBestStrategy(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: testProgram(6), Strategy: "best", Args: []int64{5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.StrategyCosts) != len(spillopt.Strategies()) {
		t.Fatalf("strategy_costs has %d entries, want %d", len(r.StrategyCosts), len(spillopt.Strategies()))
	}
	bestCost := r.StrategyCosts[r.Strategy]
	for name, c := range r.StrategyCosts {
		if c < bestCost {
			t.Errorf("chosen %s (%d) beaten by %s (%d)", r.Strategy, bestCost, name, c)
		}
	}
	sn := s.snapshot()
	if len(sn.StrategyWins) == 0 {
		t.Error("strategy=best recorded no per-function wins")
	}
}

// TestRunAndEmit: run/emit extras come back and bypass the
// function-level cache without disturbing determinism.
func TestRunAndEmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: testProgram(7), Args: []int64{5}, Run: true, Emit: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Run == nil || r.Run.Instrs == 0 {
		t.Error("run=true returned no measured result")
	}
	if r.Run != nil && r.Run.Overhead != r.TotalOverhead {
		// hierarchical-jump placements may use jump blocks whose
		// modeled and measured counts agree; assert agreement since
		// both derive from the same profile.
		t.Errorf("measured overhead %d != modeled %d", r.Run.Overhead, r.TotalOverhead)
	}
	if !strings.Contains(r.Text, "func") {
		t.Error("emit=true returned no program text")
	}
}

// TestTierPlacement: the tier option runs the tiered pipeline — the
// response carries a measured run and per-function reports of the
// final placement, a hostile program's tiny quantum forces a boundary
// (visible in the tier metrics), the tiered run's value matches the
// untiered one, and a resubmission is served from the program cache
// without re-running while still counting as a tier request.
func TestTierPlacement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := irtext.Print(irgen.Generate(3, irgen.Hostile()))
	args := []int64{5}

	rf, bodyRef := post(t, ts, PlaceRequest{IR: src, Args: args, Run: true})
	if rf.StatusCode != http.StatusOK {
		t.Fatalf("untiered status %d: %s", rf.StatusCode, bodyRef)
	}
	var ref PlaceResponse
	if err := json.Unmarshal(bodyRef, &ref); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts, PlaceRequest{IR: src, Args: args, Tier: true, Quantum: 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Run == nil || r.Run.Instrs == 0 {
		t.Fatal("tier=true returned no measured result")
	}
	if ref.Run == nil || r.Run.Value != ref.Run.Value {
		t.Errorf("tiered value %d, untiered %d", r.Run.Value, ref.Run.Value)
	}
	if len(r.Functions) == 0 {
		t.Error("tiered response carries no function reports")
	}
	sn := s.snapshot()
	if sn.Tier.Requests != 1 || sn.Tier.Runs != 1 {
		t.Errorf("tier counters %+v, want 1 request / 1 run", sn.Tier)
	}
	if sn.Tier.Boundaries != 1 || sn.Tier.Replaced == 0 {
		t.Errorf("quantum 500 on a hostile program must hit a boundary and re-place: %+v", sn.Tier)
	}

	resp2, body2 := post(t, ts, PlaceRequest{IR: src, Args: args, Tier: true, Quantum: 500})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "program" {
		t.Fatalf("resubmission not a program-cache hit: %d %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached tiered response differs from the fresh one")
	}
	sn = s.snapshot()
	if sn.Tier.Requests != 2 || sn.Tier.Runs != 1 {
		t.Errorf("cached tier request must count as a request, not a run: %+v", sn.Tier)
	}

	// Quantum without tier is a client error.
	resp3, _ := post(t, ts, PlaceRequest{IR: src, Args: args, Quantum: 500})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("quantum without tier: status %d, want 400", resp3.StatusCode)
	}
}

// TestConcurrentSubmissions hammers one server from many goroutines
// (run under -race): mixed distinct and duplicate programs, every
// response 200, and every duplicate byte-identical.
func TestConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{AnalysisBudget: 8})
	const clients, iters = 8, 6
	bodies := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bodies[c] = make([][]byte, iters)
			for i := 0; i < iters; i++ {
				seed := uint64(10 + (c+i)%4) // overlapping seeds across clients
				req, _ := json.Marshal(PlaceRequest{IR: testProgram(seed), Args: []int64{5}})
				resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
				bodies[c][i] = b
			}
		}(c)
	}
	wg.Wait()
	// Same seed → same bytes, across all clients.
	bySeed := map[uint64][]byte{}
	for c := 0; c < clients; c++ {
		for i := 0; i < iters; i++ {
			seed := uint64(10 + (c+i)%4)
			if bodies[c][i] == nil {
				continue
			}
			if prev, ok := bySeed[seed]; ok && !bytes.Equal(prev, bodies[c][i]) {
				t.Errorf("seed %d: divergent responses under concurrency", seed)
			}
			bySeed[seed] = bodies[c][i]
		}
	}
	// The analysis cache stayed within budget plus in-flight slack.
	sn := s.snapshot()
	if sn.AnalysisCache.LenMax > sn.AnalysisCache.Budget+8*clients {
		t.Errorf("analysis cache LenMax %d exceeds budget %d + slack", sn.AnalysisCache.LenMax, sn.AnalysisCache.Budget)
	}
	if sn.AnalysisCache.Len > sn.AnalysisCache.Budget {
		t.Errorf("analysis cache Len %d exceeds budget %d at rest", sn.AnalysisCache.Len, sn.AnalysisCache.Budget)
	}
	if sn.AnalysisCache.Drops == 0 {
		t.Error("eviction policy never dropped an analysis handle")
	}
}

// TestAnalysisCacheBounded: with a tiny budget, a serial stream of
// distinct programs cannot grow the shared analysis cache — the LRU
// eviction policy drops handles as new functions retire.
func TestAnalysisCacheBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{AnalysisBudget: 4})
	for seed := uint64(20); seed < 35; seed++ {
		resp, body := post(t, ts, PlaceRequest{IR: testProgram(seed), Args: []int64{5}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		if got := s.ac.Len(); got > 4 {
			t.Fatalf("analysis cache Len %d exceeds budget 4 after serial request", got)
		}
	}
	if s.ac.Drops() == 0 {
		t.Error("no drops despite 15 distinct programs against budget 4")
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, hb)
	}
	var health struct {
		OK       bool     `json:"ok"`
		Findings []string `json:"findings"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || len(health.Findings) != 0 {
		t.Fatalf("healthz findings: %v", health.Findings)
	}

	sn, err := metricsSnapshot(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The self-check went through the real caches: one program-cache
	// hit (the identical resubmission) and two misses minimum.
	if sn.ProgramCache.Hits == 0 || sn.ProgramCache.Misses == 0 {
		t.Errorf("healthz did not exercise the program cache: %+v", sn.ProgramCache)
	}
	if sn.AnalysisCache.Budget == 0 {
		t.Error("metrics reports no analysis budget")
	}
	// healthz runs place() directly, not through HTTP, so request
	// counters only reflect real requests.
	if sn.Requests.Total != 0 {
		t.Errorf("healthz polluted request counters: %+v", sn.Requests)
	}
}

// TestLoadgenSmoke drives the real loadgen against an in-process
// server at a small scale and checks the deterministic counter
// expectations the CI gate relies on.
func TestLoadgenSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	opt := LoadgenOptions{Distinct: 6, Dups: 3, Reorder: true, Workers: 4, Seed: 40}
	res, err := Loadgen(ts.Client(), ts.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 6*(1+3)+6 {
		t.Errorf("requests = %d, want 30", res.Requests)
	}
	if res.ProgramHits != int64(6*3) {
		t.Errorf("program hits = %d, want %d (every cached-phase request)", res.ProgramHits, 6*3)
	}
	if res.FunctionHits != int64(res.Functions) {
		t.Errorf("function hits = %d, want %d (every reordered function)", res.FunctionHits, res.Functions)
	}
	if res.CachedSpeedup <= 1 {
		t.Errorf("cached speedup = %.2f, want > 1", res.CachedSpeedup)
	}
	if res.AnalysisLenMax > res.AnalysisBudget+8*opt.Workers {
		t.Errorf("analysis LenMax %d exceeds budget %d + slack", res.AnalysisLenMax, res.AnalysisBudget)
	}
}

// TestGracefulShutdownNoLeak: after serving concurrent traffic and a
// graceful Shutdown, no server goroutines remain.
func TestGracefulShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	url := fmt.Sprintf("http://%s/v1/place", ln.Addr())
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, _ := json.Marshal(PlaceRequest{IR: testProgram(uint64(50 + c)), Args: []int64{5}})
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()

	// Close the client's spare keep-alive connections first: one the
	// transport dialed but never sent a request on stays StateNew on
	// the server, and Shutdown counts that as idle only once it is 5 s
	// old — as long as the deadline below.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	http.DefaultClient.CloseIdleConnections()

	// Goroutines take a moment to unwind; poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestPlaceEngines: run mode accepts every engine name, all engines
// report identical run results (they are parity-tested), unknown names
// get 400, and /metrics counts run-mode requests per engine.
func TestPlaceEngines(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := testProgram(7)

	var first []byte
	for _, engine := range spillopt.Engines() {
		resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true, Engine: engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", engine, resp.StatusCode, body)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if pr.Run == nil {
			t.Fatalf("engine %q: no run result", engine)
		}
		// Strip nothing: the whole response must match across engines,
		// run result included.
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("engine %q response differs from first engine's:\n%s\nvs\n%s", engine, body, first)
		}
	}

	// The default is the regcode engine: an engineless request hits
	// the same cache entry as an explicit engine=regcode one, and its
	// run is counted under regcode.
	resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true})
	if got := resp.Header.Get("X-Cache"); got != "program" {
		t.Errorf("engineless resubmission: X-Cache = %q, want program", got)
	}
	if !bytes.Equal(body, first) {
		t.Errorf("engineless response differs from engine=regcode's:\n%s\nvs\n%s", body, first)
	}

	// The removed bytecode engine is an unknown name like any other.
	for _, engine := range []string{"jit", "bytecode"} {
		resp, body := post(t, ts, PlaceRequest{IR: src, Run: true, Engine: engine})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d: %s", engine, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "unknown engine") {
			t.Fatalf("engine %q: body %s", engine, body)
		}
	}

	sn := s.snapshot()
	want := map[string]int64{"regcode": 2, "tree": 1}
	for engine, n := range want {
		if sn.EngineRuns[engine] != n {
			t.Errorf("engine_runs[%s] = %d, want %d (all: %v)", engine, sn.EngineRuns[engine], n, sn.EngineRuns)
		}
	}
	if len(sn.EngineRuns) != len(want) {
		t.Errorf("engine_runs = %v, want only %v", sn.EngineRuns, want)
	}
}

// TestAllocOption: the alloc option selects machine-priced allocation,
// is validated before any cache work, and is part of the cache key —
// uniform and machine responses for one program never alias, while the
// default and an explicit "uniform" share one entry.
func TestAllocOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := testProgram(7)

	resp, body := post(t, ts, PlaceRequest{IR: src, Alloc: "bogus", Args: []int64{5}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown alloc mode") {
		t.Fatalf("unknown alloc mode: status %d body %s", resp.StatusCode, body)
	}

	resp1, body1 := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("default alloc: status %d: %s", resp1.StatusCode, body1)
	}
	// An explicit "uniform" is the default spelled out: same cache
	// entry, same bytes.
	resp2, body2 := post(t, ts, PlaceRequest{IR: src, Alloc: "uniform", Args: []int64{5}})
	if c := resp2.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("explicit uniform X-Cache = %q, want %q", c, cacheProgram)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("explicit uniform response differs from default")
	}

	// Machine mode is a distinct key: a fresh pipeline run, then a hit
	// on resubmission, and still the same computed placement totals for
	// this spill-free program family or not — the response just has to
	// be deterministic.
	resp3, body3 := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("machine alloc: status %d: %s", resp3.StatusCode, body3)
	}
	if c := resp3.Header.Get("X-Cache"); c != cacheMiss {
		t.Errorf("first machine-alloc submission X-Cache = %q, want %q", c, cacheMiss)
	}
	resp4, body4 := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}})
	if c := resp4.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("machine-alloc resubmission X-Cache = %q, want %q", c, cacheProgram)
	}
	if !bytes.Equal(body3, body4) {
		t.Errorf("machine-alloc resubmission differs")
	}

	// Run mode: machine-priced allocation may move spill code but must
	// never change the computed value.
	var uni, mach PlaceResponse
	ru, bu := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true})
	rm, bm := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}, Run: true})
	if ru.StatusCode != http.StatusOK || rm.StatusCode != http.StatusOK {
		t.Fatalf("run statuses %d/%d: %s %s", ru.StatusCode, rm.StatusCode, bu, bm)
	}
	if err := json.Unmarshal(bu, &uni); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bm, &mach); err != nil {
		t.Fatal(err)
	}
	if uni.Run == nil || mach.Run == nil || uni.Run.Value != mach.Run.Value {
		t.Errorf("machine alloc changed the computed value: %+v vs %+v", uni.Run, mach.Run)
	}
}

// TestPlacePanicContained: a panic in the pipeline ends the request in
// a 500 with a JSON error instead of a dropped connection, whether it
// unwinds straight to the handler or a worker pool contains it into a
// par.PanicError (which is never blamed on the input as a 400). Either
// way the in-flight gauge returns to zero, /metrics counts the panic,
// and the service keeps answering.
func TestPlacePanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := testProgram(7)
	inject := map[string]func(*spillopt.Program) error{
		"handler": func(*spillopt.Program) error { panic("injected handler panic") },
		"worker": func(*spillopt.Program) error {
			return par.Do(4, 2, func(i int) error {
				if i == 2 {
					panic("injected worker panic")
				}
				return nil
			})
		},
	}
	for _, name := range []string{"handler", "worker"} {
		s.allocate = inject[name]
		resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s panic: status %d: %s", name, resp.StatusCode, body)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "injected "+name+" panic") {
			t.Errorf("%s panic: body %s is not a JSON error naming the panic (%v)", name, body, err)
		}
	}

	s.allocate = (*spillopt.Program).Allocate
	if resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panics: status %d: %s", resp.StatusCode, body)
	}
	req := s.snapshot().Requests
	if req.InFlight != 0 || req.Panics != 2 || req.Errors != 2 || req.OK != 1 {
		t.Errorf("requests = %+v, want 0 in flight, 2 panics, 2 errors, 1 ok", req)
	}
}
