package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestLimit(t *testing.T) {
	if got := Limit(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Limit(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Limit(8, 3); got != 3 {
		t.Errorf("Limit(8, 3) = %d, want 3", got)
	}
	if got := Limit(-1, 0); got != 1 {
		t.Errorf("Limit(-1, 0) = %d, want 1", got)
	}
	if got := Limit(2, 100); got != 2 {
		t.Errorf("Limit(2, 100) = %d, want 2", got)
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 100
		var counts [n]atomic.Int64
		if err := Do(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(50, workers, func(i int) error {
			if i%10 == 3 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Errorf("workers=%d: err = %v, want fail at 3", workers, err)
		}
	}
}

// TestDoStopsDispatchOnError pins the early-cancel behavior: once an
// index fails, indices not yet claimed must never run. fn(0) fails
// immediately; fn(1) blocks until the failure is recorded, so by the
// time any worker returns to the counter the cancel flag is set and at
// most the two in-flight indices (plus one claim that raced the flag
// per worker) can have executed out of 10000.
func TestDoStopsDispatchOnError(t *testing.T) {
	const n = 10000
	failed := make(chan struct{})
	var executed atomic.Int64
	err := Do(n, 2, func(i int) error {
		executed.Add(1)
		switch i {
		case 0:
			close(failed)
			return errors.New("boom at 0")
		case 1:
			<-failed
		}
		return nil
	})
	if err == nil || err.Error() != "boom at 0" {
		t.Fatalf("err = %v, want boom at 0", err)
	}
	if got := executed.Load(); got > 100 {
		t.Errorf("executed %d indices after early failure, want at most the in-flight handful", got)
	}
}

// TestDoStopsDispatchOnErrorSerial is the same contract on the serial
// path: the loop must return at the first failing index without
// running any later one.
func TestDoStopsDispatchOnErrorSerial(t *testing.T) {
	var executed int
	err := Do(100, 1, func(i int) error {
		executed++
		if i == 7 {
			return errors.New("boom at 7")
		}
		return nil
	})
	if err == nil || err.Error() != "boom at 7" {
		t.Fatalf("err = %v, want boom at 7", err)
	}
	if executed != 8 {
		t.Errorf("executed %d indices, want 8 (0..7)", executed)
	}
}

// TestDoLowestIndexErrorSurvivesCancel forces a higher index to fail
// (and set the cancel flag) while a lower failing index is still in
// flight: the lower index's error must still be the one returned.
func TestDoLowestIndexErrorSurvivesCancel(t *testing.T) {
	sevenDone := make(chan struct{})
	err := Do(8, 2, func(i int) error {
		switch i {
		case 3:
			<-sevenDone // fail only after 7's error set the cancel flag
			return fmt.Errorf("fail at 3")
		case 7:
			defer close(sevenDone)
			return fmt.Errorf("fail at 7")
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Errorf("err = %v, want fail at 3 (lowest failed index)", err)
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := Do(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("Do over zero items: %v", err)
	}
}

// TestDoContainsPanics: a panicking item fails with a *PanicError that
// names its index and carries its stack, on the serial and the
// parallel path alike, and the lowest-failed-index guarantee covers
// panics and ordinary errors together.
func TestDoContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(50, workers, func(i int) error {
			switch {
			case i%10 == 7:
				panicAt(i)
			case i == 13:
				return errors.New("fail at 13")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "boom at 7" {
			t.Errorf("workers=%d: panic error %+v, want index 7, value boom at 7", workers, pe)
		}
		if !strings.Contains(string(pe.Stack), "panicAt") {
			t.Errorf("workers=%d: stack does not reach the panicking function:\n%s", workers, pe.Stack)
		}
		if want := "par: item 7 panicked: boom at 7"; err.Error() != want {
			t.Errorf("workers=%d: message %q, want %q", workers, err.Error(), want)
		}

		// An ordinary error below the panic still wins.
		err = Do(50, workers, func(i int) error {
			switch i {
			case 2:
				return errors.New("fail at 2")
			case 5:
				panicAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 2" {
			t.Errorf("workers=%d: err = %v, want fail at 2", workers, err)
		}
	}
}

func panicAt(i int) { panic(fmt.Sprintf("boom at %d", i)) }
