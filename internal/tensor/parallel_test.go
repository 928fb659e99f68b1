package tensor

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelForPanicPropagates asserts For's panic contract: a panic
// in one worker chunk surfaces exactly once, on the caller goroutine, as
// a *PanicError carrying the chunk bounds — never as a process-killing
// panic on an anonymous goroutine. Run under -race in the gate, the
// panicking case must also leave no worker running.
func TestParallelForPanicPropagates(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)

	var caught atomic.Int64
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic did not reach the caller")
			}
			caught.Add(1)
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *PanicError", r)
			}
			if pe.Value != "chunk boom" {
				t.Fatalf("panic value = %v", pe.Value)
			}
			if pe.Lo < 0 || pe.Hi > 1024 || pe.Lo >= pe.Hi {
				t.Fatalf("bad chunk bounds [%d,%d)", pe.Lo, pe.Hi)
			}
			if !strings.Contains(pe.Error(), "chunk boom") {
				t.Fatalf("Error() = %q", pe.Error())
			}
			if len(pe.Stack) == 0 {
				t.Fatal("no worker stack captured")
			}
		}()
		// 1024 elements across 4 workers: several real goroutines; the
		// chunk holding index 700 panics.
		For(1024, 64, Func(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 700 {
					panic("chunk boom")
				}
			}
		}))
	}()
	if got := caught.Load(); got != 1 {
		t.Fatalf("panic surfaced %d times, want exactly 1", got)
	}
}

// TestParallelForPanicAllWorkersJoined asserts every non-panicking
// worker still completes before the panic is re-raised: the caller never
// races surviving workers on shared buffers.
func TestParallelForPanicAllWorkersJoined(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)

	var visited atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		For(4096, 64, Func(func(lo, hi int) {
			if lo == 0 {
				panic("early chunk dies")
			}
			for i := lo; i < hi; i++ {
				visited.Add(1)
			}
		}))
	}()
	// All chunks except the panicking first one ran to completion; with 4
	// workers over 4096 elements the first chunk holds 1024 elements.
	if got := visited.Load(); got != 4096-1024 {
		t.Fatalf("visited %d elements, want %d (all surviving chunks complete)", got, 4096-1024)
	}
}

// TestParallelForInlinePanicWrapped pins the single-worker (inline) path
// to the same *PanicError contract as the parallel path.
func TestParallelForInlinePanicWrapped(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)

	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatalf("inline path recovered %T, want *PanicError", pe)
		}
		if pe.Lo != 0 || pe.Hi != 10 {
			t.Fatalf("inline chunk bounds [%d,%d), want [0,10)", pe.Lo, pe.Hi)
		}
	}()
	For(10, 64, Func(func(lo, hi int) { panic("inline boom") }))
}

// TestParallelForNestedPanicNotDoubleWrapped asserts a panic crossing
// two For frames reports the innermost chunk once.
func TestParallelForNestedPanicNotDoubleWrapped(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)

	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", pe)
		}
		if pe.Value != "inner" {
			t.Fatalf("panic value = %v, want the innermost panic", pe.Value)
		}
		if pe.Lo != 0 || pe.Hi != 3 {
			t.Fatalf("chunk bounds [%d,%d), want innermost [0,3)", pe.Lo, pe.Hi)
		}
	}()
	For(10, 64, Func(func(lo, hi int) {
		For(3, 64, Func(func(lo, hi int) { panic("inner") }))
	}))
}

func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		prev := SetMaxWorkers(workers)
		seen := make([]int32, 1000)
		For(1000, 64, Func(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		}))
		SetMaxWorkers(prev)
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	For(0, 64, Func(func(lo, hi int) { called = true }))
	if called {
		t.Fatal("For called Run for an empty range")
	}
}

// TestParallelForConcurrentSetMaxWorkers hammers For while
// SetMaxWorkers flips the pool size, so `go test -race` exercises the
// atomic maxWorkers path. A plain-int package var made this exact
// interleaving a data race: the fan-out read maxWorkers from worker
// goroutines while a configuration goroutine wrote it.
func TestParallelForConcurrentSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0) // restore GOMAXPROCS default

	const (
		iters = 200
		n     = 1 << 12
	)
	var wg sync.WaitGroup

	// Writer: flip the pool size between serial and wide.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			SetMaxWorkers(1 + i%8)
			_ = MaxWorkers()
		}
	}()

	// Readers: run parallel kernels that cover the full range every time
	// regardless of the worker count observed.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				covered := make([]bool, n)
				// Chunks are disjoint, so unsynchronized writes to
				// distinct indices are race-free by construction.
				For(n, 64, Func(func(lo, hi int) {
					for j := lo; j < hi; j++ {
						covered[j] = true
					}
				}))
				for j, ok := range covered {
					if !ok {
						t.Errorf("index %d not covered", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSetMaxWorkersSwap checks the return-previous contract survives the
// atomic rewrite.
func TestSetMaxWorkersSwap(t *testing.T) {
	orig := MaxWorkers()
	defer SetMaxWorkers(orig)

	prev := SetMaxWorkers(3)
	if prev != orig {
		t.Fatalf("SetMaxWorkers returned %d, want previous value %d", prev, orig)
	}
	if got := MaxWorkers(); got != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", got)
	}
	if prev := SetMaxWorkers(0); prev != 3 {
		t.Fatalf("SetMaxWorkers(0) returned %d, want 3", prev)
	}
	if got := MaxWorkers(); got < 1 {
		t.Fatalf("MaxWorkers after reset = %d, want >= 1", got)
	}
}

// TestForChunkBounds pins the chunks For hands out: at most MaxWorkers()
// of them, each at least minChunk items (minChunk < 1 counts as 1), all
// ceil(n/workers) long but the last; fewer than two chunks' worth runs
// as one chunk [0, n). Each row was worked by hand from that rule.
func TestForChunkBounds(t *testing.T) {
	for _, tc := range []struct {
		n, minChunk, workers int
		want                 [][2]int
	}{
		{0, 1, 4, nil},
		{1, 1, 4, [][2]int{{0, 1}}},
		{10, 1, 1, [][2]int{{0, 10}}},
		{10, 1, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{10, 1, 8, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}}},
		{3, 1, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, 0, 2, [][2]int{{0, 3}, {3, 5}}},
		{7, 2, 8, [][2]int{{0, 3}, {3, 6}, {6, 7}}},
		{9, 4, 4, [][2]int{{0, 5}, {5, 9}}},
		{127, 64, 4, [][2]int{{0, 127}}},
		{128, 64, 4, [][2]int{{0, 64}, {64, 128}}},
		{200, 64, 7, [][2]int{{0, 67}, {67, 134}, {134, 200}}},
		{1000, 64, 7, [][2]int{{0, 143}, {143, 286}, {286, 429}, {429, 572}, {572, 715}, {715, 858}, {858, 1000}}},
	} {
		prev := SetMaxWorkers(tc.workers)
		var (
			mu  sync.Mutex
			got [][2]int
		)
		For(tc.n, tc.minChunk, Func(func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		}))
		SetMaxWorkers(prev)
		sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("For(%d, %d) at %d workers: chunks %v, want %v", tc.n, tc.minChunk, tc.workers, got, tc.want)
		}
	}
}

// sumJob is a For job over a slice: a value receiver, as the kernels'.
type sumJob struct {
	xs  []float32
	out *float32
}

func (j sumJob) Run(lo, hi int) {
	for _, v := range j.xs[lo:hi] {
		*j.out += v
	}
}

// TestForInlineZeroAlloc: a For the rule keeps on the caller's
// goroutine allocates nothing even with four workers available — the
// path every batch-1 forward takes on a multi-core host — and neither
// do kernels built on it, whose jobs are larger than the 128 bytes up to
// which a closure copies a captured variable instead of moving it to the
// heap.
func TestForInlineZeroAlloc(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	xs := make([]float32, 100)
	out := new(float32)
	// n = 100 < 2·64: one chunk.
	if avg := testing.AllocsPerRun(100, func() { For(len(xs), 64, sumJob{xs: xs, out: out}) }); avg != 0 {
		t.Fatalf("inline For allocates %.1f times per call", avg)
	}
	sm := New(8, 10)
	if avg := testing.AllocsPerRun(100, func() { sm.SoftmaxRows() }); avg != 0 {
		t.Fatalf("SoftmaxRows over 8 rows allocates %.1f times per call", avg)
	}
	spec := ConvSpec{KH: 2, KW: 2, Stride: 2}
	x, y := New(2, 3, 8, 8), New(2, 3, 4, 4)
	if avg := testing.AllocsPerRun(100, func() { MaxPool2DForwardInto(y, nil, x, 3, 8, 8, spec) }); avg != 0 {
		t.Fatalf("MaxPool2DForwardInto over 2 samples allocates %.1f times per call", avg)
	}
}
