package threadpool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded", n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestParallelForCoversAllIndicesOnce(t *testing.T) {
	p := MustNew(4)
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, width := range []int{1, 2, 4, 9} {
			counts := make([]int32, n)
			p.ParallelFor(n, width, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d width=%d: index %d visited %d times", n, width, i, c)
				}
			}
		}
	}
}

func TestParallelRangeCoversAllIndicesOnce(t *testing.T) {
	p := MustNew(3)
	n := 257
	counts := make([]int32, n)
	p.ParallelRange(n, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParallelForWidthNeverExceedsPool(t *testing.T) {
	p := MustNew(2)
	var inFlight, peak int32
	var mu sync.Mutex
	p.ParallelFor(64, 64, func(i int) {
		cur := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt32(&inFlight, -1)
	})
	if peak > 2 {
		t.Errorf("observed %d concurrent workers with pool size 2", peak)
	}
}

func TestInterOpBoundsConcurrency(t *testing.T) {
	p := MustNew(8)
	s, err := NewInterOp(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak int32
	var mu sync.Mutex
	gate := make(chan struct{})
	for i := 0; i < 6; i++ {
		s.Submit(Op{Name: "op", Width: 1, Run: func(_ *Pool, _ int) {
			cur := atomic.AddInt32(&inFlight, 1)
			mu.Lock()
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			<-gate
			atomic.AddInt32(&inFlight, -1)
		}})
		if i == 1 {
			// First two submitted; the third Submit below must block until a
			// slot frees, so release the gate in the background.
			go func() {
				for j := 0; j < 6; j++ {
					gate <- struct{}{}
				}
			}()
		}
	}
	s.Wait()
	if peak > 2 {
		t.Errorf("inter-op peak concurrency %d, want <= 2", peak)
	}
}

func TestNewInterOpRejectsNonPositive(t *testing.T) {
	p := MustNew(1)
	if _, err := NewInterOp(p, 0); err == nil {
		t.Error("NewInterOp(p, 0) succeeded")
	}
}

func TestPropertyParallelForSum(t *testing.T) {
	p := MustNew(6)
	f := func(nRaw uint16, widthRaw uint8) bool {
		n := int(nRaw % 2000)
		width := 1 + int(widthRaw%10)
		var sum int64
		p.ParallelFor(n, width, func(i int) {
			atomic.AddInt64(&sum, int64(i))
		})
		return sum == int64(n)*int64(n-1)/2 || n == 0 && sum == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelForRecoversWorkerPanic: a panic in a worker must not kill the
// process; it is rethrown on the submitting goroutine as *PanicError and is
// recoverable there.
func TestParallelForRecoversWorkerPanic(t *testing.T) {
	p := MustNew(4)
	var recovered *PanicError
	func() {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("recovered %T, want *PanicError", r)
				}
				recovered = pe
			}
		}()
		p.ParallelFor(8, 4, func(i int) {
			if i == 3 {
				panic("kaboom")
			}
		})
	}()
	if recovered == nil {
		t.Fatal("worker panic not rethrown at the caller")
	}
	if recovered.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", recovered.Value)
	}
	if len(recovered.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	// The pool must remain usable: all slots were released.
	sum := 0
	var mu sync.Mutex
	p.ParallelFor(8, 4, func(i int) { mu.Lock(); sum += i; mu.Unlock() })
	if sum != 28 {
		t.Errorf("pool broken after panic: sum = %d, want 28", sum)
	}
}

// TestParallelRangeRecoversWorkerPanic: same contract for the range variant.
func TestParallelRangeRecoversWorkerPanic(t *testing.T) {
	p := MustNew(2)
	caught := false
	func() {
		defer func() { caught = recover() != nil }()
		p.ParallelRange(4, 2, func(lo, hi int) { panic(lo) })
	}()
	if !caught {
		t.Fatal("range worker panic not rethrown")
	}
}

// TestInterOpWaitReturnsPanicError: Submit recovers op panics and Wait
// surfaces the first as an error; the error unwraps to the panicked error
// value.
func TestInterOpWaitReturnsPanicError(t *testing.T) {
	p := MustNew(2)
	s, err := NewInterOp(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	s.Submit(Op{Name: "ok", Width: 1, Run: func(*Pool, int) {}})
	s.Submit(Op{Name: "bad", Width: 1, Run: func(*Pool, int) { panic(boom) }})
	werr := s.Wait()
	if werr == nil {
		t.Fatal("Wait returned nil after op panic")
	}
	var pe *PanicError
	if !errors.As(werr, &pe) || pe.Op != "bad" {
		t.Fatalf("Wait error = %v, want *PanicError from op bad", werr)
	}
	if !errors.Is(werr, boom) {
		t.Error("PanicError does not unwrap to the panicked error value")
	}
}
