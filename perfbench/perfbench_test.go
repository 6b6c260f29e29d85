package main

import (
	"bytes"
	"testing"
	"time"
)

// small input sizes keep each self-test run under a few seconds; a
// run always completes minOps ops, so a short duration still covers
// every input once.
var testSizes = map[string]int{"compile": 8, "paper-eval": 0, "serve": 160}

func setupSmall(t *testing.T, name string, seed uint64) workload {
	t.Helper()
	w, err := setupFuncs[name](seed, testSizes[name])
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	t.Cleanup(w.close)
	return w
}

// TestDeterministicCounts: two runs at one seed agree exactly on
// spill_cost, instruction counts, static spill/save/restore counts and
// analysis build counts, and every op succeeds.
func TestDeterministicCounts(t *testing.T) {
	for name := range setupFuncs {
		t.Run(name, func(t *testing.T) {
			var dets [2]opCounts
			for i := range dets {
				rs := run(setupSmall(t, name, 7), 10*time.Millisecond, i == 1)
				if rs.wrong != 0 || rs.detOps == 0 {
					t.Fatalf("run %d: %d wrong outputs, %d first-pass ops counted", i, rs.wrong, rs.detOps)
				}
				dets[i] = rs.det
			}
			if dets[0] != dets[1] {
				t.Errorf("deterministic counts differ between runs at one seed:\n%+v\n%+v", dets[0], dets[1])
			}
			if dets[0].spillCost == 0 || dets[0].runInstrs == 0 {
				t.Errorf("counts are empty: %+v", dets[0])
			}
		})
	}
}

// TestSeedChangesInputs: a different seed gives a different corpus,
// request sequence or evaluation order.
func TestSeedChangesInputs(t *testing.T) {
	c1 := setupSmall(t, "compile", 1).(*compileBench)
	c2 := setupSmall(t, "compile", 2).(*compileBench)
	if c1.corpus[0].text == c2.corpus[0].text {
		t.Error("compile: seeds 1 and 2 generated the same first program")
	}
	s1 := setupSmall(t, "serve", 1).(*serveBench)
	s2 := setupSmall(t, "serve", 2).(*serveBench)
	if bytes.Equal(s1.keys[0].body, s2.keys[0].body) {
		t.Error("serve: seeds 1 and 2 sent the same first request")
	}
	p1 := setupSmall(t, "paper-eval", 1).(*paperBench)
	p2 := setupSmall(t, "paper-eval", 2).(*paperBench)
	same := true
	for i := range p1.progs {
		same = same && p1.progs[i].name == p2.progs[i].name
	}
	if same {
		t.Error("paper-eval: seeds 1 and 2 visit the stand-ins in the same order")
	}
}

// TestWrongReferenceCounted: an injected wrong reference value is
// counted as a wrong output, and the run carries on to the end.
func TestWrongReferenceCounted(t *testing.T) {
	inject := map[string]func(w workload){
		"compile":    func(w workload) { w.(*compileBench).corpus[1].ref.value++ },
		"paper-eval": func(w workload) { w.(*paperBench).progs[0].ref.value++ },
		"serve": func(w workload) {
			b := w.(*serveBench)
			for _, rq := range b.seq[b.warm:] {
				if k := &b.keys[rq.key]; k.hasWant {
					k.want++
					return
				}
			}
			t.Fatal("serve: no measured request with a reference value")
		},
	}
	for name, corrupt := range inject {
		t.Run(name, func(t *testing.T) {
			w := setupSmall(t, name, 3)
			corrupt(w)
			rs := run(w, 10*time.Millisecond, false)
			if rs.wrong == 0 || rs.failed < rs.wrong || len(rs.failedInputs) != 1 {
				t.Errorf("wrong reference not counted: %d wrong, %d failed ops of %d, %d failed inputs",
					rs.wrong, rs.failed, rs.ops, len(rs.failedInputs))
			}
			if rs.ops < w.minOps() {
				t.Errorf("run stopped at %d ops, before its %d first-pass ops", rs.ops, w.minOps())
			}
		})
	}
}

// TestServeByteMismatchCounted: a reply that differs from the first
// reply to the same request is a wrong output.
func TestServeByteMismatchCounted(t *testing.T) {
	b := setupSmall(t, "serve", 3).(*serveBench)
	for _, rq := range b.seq[b.warm:] {
		if !rq.first {
			b.first[rq.key] = []byte("not the reply")
			break
		}
	}
	rs := run(b, 10*time.Millisecond, false)
	if rs.wrong == 0 {
		t.Errorf("byte mismatch not counted: %d wrong, %d failed", rs.wrong, rs.failed)
	}
}

// TestFailedInputsCountedOnce: an input that fails on every pass is
// one failed input, however many ops the run completes.
func TestFailedInputsCountedOnce(t *testing.T) {
	w := setupSmall(t, "compile", 3)
	w.(*compileBench).corpus[2].ref.value++
	rs := run(passes{w, 2}, 0, false)
	if len(rs.failedInputs) != 1 || !rs.failedInputs[2] || rs.failed < 2 {
		t.Errorf("failed inputs %v, failed ops %d; want input 2 only, failing on every pass", rs.failedInputs, rs.failed)
	}
}

// TestServeReplayIdentical: every pass replays the sequence against a
// fresh service, and its replies are byte-identical to the first
// pass's.
func TestServeReplayIdentical(t *testing.T) {
	w, err := setupServe(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	b := w.(*serveBench)
	rs := run(passes{b, 2}, 0, false)
	if rs.inputs != len(b.keys) || len(rs.failedInputs) != 0 || rs.wrong != 0 {
		t.Errorf("%d inputs of %d keys, %d failed, %d wrong", rs.inputs, len(b.keys), len(rs.failedInputs), rs.wrong)
	}
	if b.totals.programMisses == 0 || b.totals.programHits == 0 {
		t.Errorf("service counters not summed over the passes: %+v", b.totals)
	}
}

// TestRefLoopScaling: the reference loop allocates nothing, so the
// collector does not enter its shots, and a chunk's CPU time is scaled
// by the shots on either side of it.
func TestRefLoopScaling(t *testing.T) {
	l := newRefLoop()
	if a := testing.AllocsPerRun(3, func() { l.shot() }); a != 0 {
		t.Errorf("a shot allocated %v times", a)
	}
	if s := l.shot(); s <= 0 {
		t.Errorf("a shot took %v of CPU time", s)
	}
	// Shots at twice the reference time halve the scaled figure.
	if got := slowdown(2*refShotCPU, 2*refShotCPU); got != 2 {
		t.Errorf("slowdown at twice the reference shot time = %v, want 2", got)
	}
	passes := [][]float64{{4e6, 8e6}, {5e6, 9e6}, {6e6, 7e6}}
	if got, want := msPerOp(passes, 4), (5e6+8e6)/4/1e6; got != want {
		t.Errorf("msPerOp = %v, want the chunk medians' sum per op, %v", got, want)
	}
}

// passes makes a run complete n passes, however long they take.
type passes struct {
	workload
	n int
}

func (p passes) minOps() int { return p.n * p.passLen() }
