package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/server"
)

const (
	// serveSession is the length of the standard pre-generated request
	// sequence. A run replays it, each pass against a fresh service,
	// so every pass does the same work.
	serveSession = 800
	// serveProgramCache is the program-cache entry budget, a deployment
	// setting kept below the distinct requests a pass sends so that
	// evictions happen and the hit ratio reflects the cache policy.
	serveProgramCache = 64
	// resubmitWindow bounds how far back a resubmission reaches, in
	// distinct requests; draws skew toward the recent end.
	resubmitWindow = 128
	// serveWarm is how many requests from the head of the sequence the
	// set-up sends to warm the process up. The service they reach is
	// replaced before the measured run.
	serveWarm = 100
	// serveArg is the argument every request profiles and runs with.
	serveArg = 5
)

// serveBlock is the class mix of every block of 20 consecutive
// requests: 25% cold, 50% resubmitted, 10% reordered, 10% best and 5%
// tiered. Each block shuffles its classes, so the mix is the same for
// every seed and every stretch of the sequence.
var serveBlock = []string{
	classCold, classCold, classCold, classCold, classCold,
	classResubmit, classResubmit, classResubmit, classResubmit, classResubmit,
	classResubmit, classResubmit, classResubmit, classResubmit, classResubmit,
	classReversed, classReversed, classBest, classBest, classTier,
}

// Request classes of the serve mix.
const (
	classCold     = "cold"
	classResubmit = "resubmit"
	classReversed = "reversed"
	classBest     = "best"
	classTier     = "tier"
)

// serveKey is one distinct request body.
type serveKey struct {
	class string
	body  []byte
	// want is the reference run value for requests that run (best,
	// tier); hasWant says it is set.
	want    int64
	hasWant bool
	// orig is, for a reversed request, the key of the cold submission
	// of the same program; -1 otherwise.
	orig    int
	irBytes int64
}

// serveReq is one position of the request sequence.
type serveReq struct {
	key   int
	class string
	first bool
}

// serveBench is the serve workload: one client replays a seeded
// request sequence against an in-process placement service on a
// loopback listener, waiting for each reply before the next send.
// Each pass over the sequence starts a fresh service, so every pass
// sees the same cache misses, hits and evictions.
//
// One client, not two: two saturated the two-vCPU machine the
// benchmark was tuned on, whose second vCPU's capacity came and went
// with other tenants' load, and runs of one seed read anywhere from
// 215 to 495 requests/s. One client leaves the second vCPU to the
// collector and the service's connection goroutines.
type serveBench struct {
	keys []serveKey
	seq  []serveReq
	warm int // sequence positions sent during set-up

	srv    *http.Server
	done   chan error
	url    string
	client *http.Client

	first map[int][]byte // first response body of each key

	// measuring says the current service belongs to the measured run;
	// totals sums the /metrics counters of the run's services, and
	// metricsErr holds the first failure to read them.
	measuring  bool
	totals     serviceTotals
	metricsErr error
}

// serviceTotals are the /metrics counters the per-layer metrics use,
// summed over the services of a run.
type serviceTotals struct {
	programHits, programMisses, programEvictions int64
	functionHits, functionMisses                 int64
	analysisDrops, tierBoundaries, tierReplaced  int64
}

func (t *serviceTotals) add(sn *server.Snapshot) {
	t.programHits += sn.ProgramCache.Hits
	t.programMisses += sn.ProgramCache.Misses
	t.programEvictions += sn.ProgramCache.Evictions
	t.functionHits += sn.FunctionCache.Hits
	t.functionMisses += sn.FunctionCache.Misses
	t.analysisDrops += int64(sn.AnalysisCache.Drops)
	t.tierBoundaries += sn.Tier.Boundaries
	t.tierReplaced += sn.Tier.Replaced
}

func setupServe(seed uint64, size int) (workload, error) {
	n := serveSession
	if size > 0 {
		n = size
	}
	b := &serveBench{warm: min(serveWarm, n/4), first: map[int][]byte{}}
	if err := b.generate(seed, n); err != nil {
		return nil, err
	}
	if err := b.start(); err != nil {
		return nil, err
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// generate builds the request sequence: 25% cold programs, 50% exact
// resubmissions skewed toward recent requests, 10% reordered variants
// of earlier cold programs, 10% best-strategy runs of earlier cold
// programs and 5% tiered runs of estimator-hostile programs. A
// reordered or best request with no cold program left to reuse (at
// the head of the sequence) becomes a cold one.
func (b *serveBench) generate(seed uint64, n int) error {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	seen := newTextSet()
	coldSeed, tierSeed := corpusSeed(seed, 3), corpusSeed(seed, 4)
	// Cold keys not yet reused by a reordered or best request; the
	// client is a closed loop, so every earlier request has completed.
	var revStack, bestStack []int
	progSeed := map[int]uint64{} // cold key -> irgen seed
	coldText := map[int]string{} // cold key -> IR text, until its best request

	addKey := func(k serveKey) {
		b.keys = append(b.keys, k)
		b.seq = append(b.seq, serveReq{key: len(b.keys) - 1, class: k.class, first: true})
	}
	encode := func(req server.PlaceRequest) []byte {
		body, _ := json.Marshal(req) // a struct of strings and ints always encodes
		return body
	}
	// nextProgram draws the next program of a family whose text is
	// new, returning it with its irgen seed.
	nextProgram := func(s *uint64, cfg irgen.Config) (*ir.Program, string, uint64) {
		for {
			p := irgen.Generate(*s, cfg)
			*s++
			if text := irtext.Print(p); seen.add(text) {
				return p, text, *s - 1
			}
		}
	}
	// take pops the most recent cold key.
	take := func(stack *[]int) (int, bool) {
		if len(*stack) == 0 {
			return 0, false
		}
		k := (*stack)[len(*stack)-1]
		*stack = (*stack)[:len(*stack)-1]
		return k, true
	}
	cold := func() {
		_, text, ps := nextProgram(&coldSeed, irgen.Default())
		progSeed[len(b.keys)] = ps
		coldText[len(b.keys)] = text
		revStack = append(revStack, len(b.keys))
		bestStack = append(bestStack, len(b.keys))
		addKey(serveKey{class: classCold, orig: -1, irBytes: int64(len(text)),
			body: encode(server.PlaceRequest{IR: text, Args: []int64{serveArg}})})
	}
	block := slices.Clone(serveBlock)
	for len(b.seq) < n {
		if len(b.seq)%len(block) == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		switch class := block[len(b.seq)%len(block)]; {
		case class == classCold || len(b.keys) == 0:
			cold()
		case class == classResubmit:
			w := min(len(b.keys), resubmitWindow)
			back := int(float64(w) * rng.Float64() * rng.Float64())
			k := len(b.keys) - 1 - back
			b.seq = append(b.seq, serveReq{key: k, class: classResubmit})
		case class == classReversed:
			k, ok := take(&revStack)
			if !ok {
				cold()
				break
			}
			p := irgen.Generate(progSeed[k], irgen.Default())
			slices.Reverse(p.Order)
			text := irtext.Print(p)
			addKey(serveKey{class: classReversed, orig: k, irBytes: int64(len(text)),
				body: encode(server.PlaceRequest{IR: text, Args: []int64{serveArg}})})
		case class == classBest:
			k, ok := take(&bestStack)
			if !ok {
				cold()
				break
			}
			ref, err := referenceRun(irgen.Generate(progSeed[k], irgen.Default()), serveArg)
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			text := coldText[k]
			delete(coldText, k)
			addKey(serveKey{class: classBest, orig: -1, want: ref.value, hasWant: true, irBytes: int64(len(text)),
				body: encode(server.PlaceRequest{IR: text, Strategy: "best", Run: true, Args: []int64{serveArg}})})
		default:
			p, text, _ := nextProgram(&tierSeed, irgen.Hostile())
			ref, err := referenceRun(p, serveArg)
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			addKey(serveKey{class: classTier, orig: -1, want: ref.value, hasWant: true, irBytes: int64(len(text)),
				body: encode(server.PlaceRequest{IR: text, Tier: true, Args: []int64{serveArg}})})
		}
	}
	return nil
}

// start serves a fresh service on a loopback listener.
func (b *serveBench) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	svc := server.New(server.Config{ProgramCacheEntries: serveProgramCache})
	b.srv = &http.Server{Handler: svc.Handler()}
	b.done = make(chan error, 1)
	go func() { b.done <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return nil
}

// warmUp checks the service's health and sends the head of the
// sequence. Replies are recorded for the byte-identity checks; a
// failure recurs, and is counted, in the measured run, which sends
// the whole sequence.
func (b *serveBench) warmUp() error {
	resp, err := b.client.Get(b.url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	for i := 0; i < b.warm; i++ {
		b.send(i, nil)
	}
	return nil
}

// post sends one placement request and reads the whole reply.
func (b *serveBench) post(body []byte) (status int, outcome string, reply []byte, err error) {
	resp, err := b.client.Post(b.url+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), reply, err
}

func (b *serveBench) minOps() int  { return len(b.seq) }
func (b *serveBench) maxOps() int  { return maxInt }
func (b *serveBench) inputs() int  { return len(b.keys) }
func (b *serveBench) passLen() int { return len(b.seq) }

// beginPass replaces the service with a fresh one, adding the old
// one's counters to the run's totals unless it served the warm-up.
func (b *serveBench) beginPass(t *tracer) {
	if b.measuring {
		b.addCounters(t)
	}
	b.measuring = true
	b.close()
	if err := b.start(); err != nil {
		// The pass's requests then fail and are counted.
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
}

// op sends request i of the sequence, replayed once per pass.
func (b *serveBench) op(i int, t *tracer) opResult { return b.send(i%len(b.seq), t) }

// send sends sequence position i and checks the reply.
func (b *serveBench) send(i int, t *tracer) opResult {
	rq := b.seq[i]
	k := &b.keys[rq.key]
	out := opResult{input: rq.key, first: rq.first}
	var status int
	var outcome string
	var reply []byte
	err := t.span("server", func() (err error) {
		status, outcome, reply, err = b.post(k.body)
		return err
	})
	// Latency is split by cache outcome, except that best and tiered
	// requests, which pay for extra pipeline work, get their own.
	out.class = outcome
	if k.class == classBest || k.class == classTier {
		out.class = k.class
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	if err != nil {
		out.err = fmt.Errorf("request %d (%s): %w", i, rq.class, err)
		return out
	}
	out.counts.respBytes = int64(len(reply))
	if !b.sameAsFirst(rq.key, reply) {
		out.err = fmt.Errorf("%w: request %d (%s) differs from the first reply to the same request", errWrongOutput, i, rq.class)
		return out
	}
	if !k.hasWant && !rq.first {
		return out
	}
	var resp server.PlaceResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		out.err = fmt.Errorf("%w: request %d (%s): %v", errWrongOutput, i, rq.class, err)
		return out
	}
	if k.hasWant && (resp.Run == nil || resp.Run.Value != k.want) {
		out.err = fmt.Errorf("%w: request %d (%s) run %+v, reference value %d", errWrongOutput, i, rq.class, resp.Run, k.want)
	}
	if rq.first {
		out.counts.irBytes = k.irBytes
		if resp.Run != nil {
			out.counts.runInstrs = resp.Run.Instrs
		}
		if k.class == classCold {
			// spill_cost sums each distinct program once: the cold
			// submission is its hierarchical-jump placement.
			out.counts.spillCost = resp.TotalCost
			for _, f := range resp.Functions {
				out.counts.spillInstrs += int64(f.SpillInstrs)
				out.counts.saveRestoreInstrs += int64(f.SaveInstrs + f.RestoreInstrs)
				out.counts.jumpBlockInstrs += int64(f.JumpBlockInstrs)
			}
		}
	}
	return out
}

// sameAsFirst records the first reply of each key and reports whether
// a later reply is byte-identical to it.
func (b *serveBench) sameAsFirst(key int, reply []byte) bool {
	if first, ok := b.first[key]; ok {
		return bytes.Equal(first, reply)
	}
	b.first[key] = reply
	return true
}

// finish checks every reordered variant's reply against its
// original's: the same function reports in reverse order, with the
// same totals.
func (b *serveBench) finish() []inputErr {
	var errs []inputErr
	for key, reply := range b.first {
		k := &b.keys[key]
		if k.class != classReversed {
			continue
		}
		orig, ok := b.first[k.orig]
		if !ok {
			errs = append(errs, inputErr{key, fmt.Errorf("reordered request key %d: its original never succeeded", key)})
			continue
		}
		var want server.PlaceResponse
		if err := json.Unmarshal(orig, &want); err != nil {
			errs = append(errs, inputErr{key, fmt.Errorf("%w: reply to key %d: %v", errWrongOutput, k.orig, err)})
			continue
		}
		slices.Reverse(want.Functions)
		if body, err := json.Marshal(&want); err != nil || !bytes.Equal(body, reply) {
			errs = append(errs, inputErr{key, fmt.Errorf("%w: reordered request key %d is not its original's reply reordered", errWrongOutput, key)})
		}
	}
	return errs
}

func (b *serveBench) snapshot(t *tracer) (server.Snapshot, error) {
	var sn server.Snapshot
	err := t.span("metrics", func() error {
		resp, err := b.client.Get(b.url + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics: status %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(&sn)
	})
	return sn, err
}

// addCounters adds the current service's /metrics counters to the
// run's totals.
func (b *serveBench) addCounters(t *tracer) {
	sn, err := b.snapshot(t)
	if err != nil {
		b.metricsErr = cmp.Or(b.metricsErr, err)
		return
	}
	b.totals.add(&sn)
}

// serviceMetrics are the per-layer metrics read from the service's
// own counters; other workloads report them as 0.
var serviceMetrics = []struct{ name, unit string }{
	{"contentcache.program_hit_ratio", "ratio"},
	{"contentcache.function_hit_ratio", "ratio"},
	{"contentcache.program_evictions", "count"},
	{"analysis.drops", "count"},
	{"tier.boundaries", "count"},
	{"tier.replaced", "count"},
}

func (b *serveBench) endRun(t *tracer, m map[string]metric) {
	b.addCounters(t)
	if b.metricsErr != nil {
		// The service counters then read 0.
		fmt.Fprintf(os.Stderr, "perfbench: serve: reading /metrics: %v\n", b.metricsErr)
		return
	}
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	c := &b.totals
	m["contentcache.program_hit_ratio"] = metric{ratio(c.programHits, c.programMisses), "ratio"}
	m["contentcache.function_hit_ratio"] = metric{ratio(c.functionHits, c.functionMisses), "ratio"}
	m["contentcache.program_evictions"] = metric{float64(c.programEvictions), "count"}
	m["analysis.drops"] = metric{float64(c.analysisDrops), "count"}
	m["tier.boundaries"] = metric{float64(c.tierBoundaries), "count"}
	m["tier.replaced"] = metric{float64(c.tierReplaced), "count"}
}

// close shuts the service down and waits for it to stop serving.
func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	if err := <-b.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	b.client.CloseIdleConnections()
	b.srv = nil
}
