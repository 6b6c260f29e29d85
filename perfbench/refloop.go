package main

import (
	"runtime"
	"time"
)

// refLoop is a fixed piece of CPU work that does not depend on the
// program under test: a small bytecode interpreter, the same kind of
// branchy dispatch loop the pipeline spends its time in. The benchmark
// runs it between chunks of ops and divides each chunk's CPU time by
// the loop's, which cancels most of the drift in this machine's speed:
// other tenants share its cores and caches, and over minutes the same
// work took anywhere from 1× to 1.4× the CPU time.
type refLoop struct {
	code []byte
	tab  []uint32
	acc  uint32
}

const (
	// refRounds is how many times a shot runs the loop's code.
	refRounds = 32
	// refShotCPU is the CPU time a shot is scaled to: the reference
	// speed. On the 2-vCPU Xeon VM the benchmark was tuned on, a shot
	// took 1.1 to 1.8 ms.
	refShotCPU = 2 * time.Millisecond
)

func newRefLoop() *refLoop {
	l := &refLoop{code: make([]byte, 4096), tab: make([]uint32, 1<<14)}
	x := uint32(12345)
	for i := range l.code {
		x = x*1664525 + 1013904223
		l.code[i] = byte(x>>24) % 8
	}
	return l
}

// shot runs the loop once and returns the CPU time of the thread that
// ran it. It allocates nothing.
func (l *refLoop) shot() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := clockTime(clockThreadCPUTime)
	a, b := l.acc, uint32(7)
	for range refRounds {
		for _, op := range l.code {
			switch op {
			case 0:
				a += b
			case 1:
				a ^= a << 3
			case 2:
				b = l.tab[a&(1<<14-1)]
			case 3:
				l.tab[b&(1<<14-1)] = a
			case 4:
				if a&1 == 0 {
					a >>= 1
				} else {
					a = 3*a + 1
				}
			case 5:
				a, b = b, a
			case 6:
				b += a >> 5
			default:
				a -= b
			}
		}
	}
	l.acc = a + b
	return clockTime(clockThreadCPUTime) - t0
}

// shots runs n shots and returns their median.
func (l *refLoop) shots(n int) time.Duration {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(l.shot())
	}
	return time.Duration(median(v))
}

// slowdown is how many times slower than the reference speed the
// machine ran the shots before and after a measurement: a CPU time
// measured between them, divided by it, is the time at the reference
// speed.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refShotCPU)
}
