package tensor

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the size of the worker pools For spawns. It defaults
// to runtime.GOMAXPROCS(0) and exists so tests can exercise both the
// serial and parallel paths deterministically. It is an atomic because
// For loads it from arbitrary goroutines while tests (and future
// serving code) call SetMaxWorkers concurrently; a plain int here was a
// data race.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetMaxWorkers overrides the number of workers used by parallel kernels
// and returns the previous value. n < 1 resets to runtime.GOMAXPROCS(0).
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers returns the current worker-pool size.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// PanicError is a worker panic captured by For and re-raised on the
// caller goroutine. It carries the chunk that panicked and the worker's
// stack, so a crash in one matmul chunk reports where it happened
// instead of killing the process from an anonymous goroutine no recover
// can reach.
type PanicError struct {
	Lo, Hi int         // chunk bounds [Lo, Hi) the worker was processing
	Value  interface{} // the recovered panic value
	Stack  []byte      // worker stack at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("tensor: panic in For chunk [%d,%d): %v", e.Lo, e.Hi, e.Value)
}

// For runs j.Run(lo, hi) over contiguous chunks covering [0, n), one
// goroutine per chunk, with at most MaxWorkers() chunks of at least
// minChunk items each. Kernels whose per-item cost is large (one conv
// sample, one GEMM stripe) pass minChunk 1 so small item counts still
// fan out; cheap elementwise loops pass 64.
//
// When one worker is all the rule allows, For calls j.Run(0, n) inline
// and starts no goroutine. Jobs implement Run on a value receiver: the
// inline call then puts nothing on the heap, which keeps a batch-1
// forward and a one-worker training step allocation-free. Only the
// fan-out copies j into the workers' closure. A func value does escape
// (see Func).
//
// A panic in any chunk is captured and re-raised exactly once, on the
// caller's goroutine, as a *PanicError — from the inline path too. All
// workers are joined first, so no goroutine outlives the call and the
// caller's recover (the experiment harness isolates per-figure panics)
// can contain the failure.
func For[J interface{ Run(lo, hi int) }](n, minChunk int, j J) {
	if n <= 0 {
		return
	}
	workers := max(1, min(MaxWorkers(), n/max(minChunk, 1)))
	if workers == 1 {
		defer func() {
			if r := recover(); r != nil {
				panic(asPanicError(0, n, r))
			}
		}()
		j.Run(0, n)
		return
	}
	shared := j
	var (
		wg    sync.WaitGroup
		first sync.Once
		pe    *PanicError
	)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err := asPanicError(lo, hi, r)
					first.Do(func() { pe = err })
				}
			}()
			shared.Run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if pe != nil {
		panic(pe)
	}
}

// Func adapts a closure to For. The closure escapes to the heap, so a
// call allocates once even when it runs inline: fine for a batch of
// scripts or trees, or where the caller has already chosen to fan out,
// not for a kernel that a batch-1 forward or a one-worker training step
// runs.
type Func func(lo, hi int)

// Run calls f.
func (f Func) Run(lo, hi int) { f(lo, hi) }

// asPanicError wraps a recovered value with chunk context, passing an
// already-wrapped *PanicError through so nested For calls report the
// innermost chunk.
func asPanicError(lo, hi int, r interface{}) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
}

// inferParallelMin is the multiply-add count a worker must be handed
// before fan-out pays on the inference path. A batch-1 forward is a
// chain of GEMMs of 10⁵ multiply-adds — tens of microseconds each,
// about what waking a second thread costs — so gemmParallelMin, sized
// for training batches, makes a lone request slower on two cores than
// on one.
const inferParallelMin = 1 << 20

// workChunk is the minChunk of a For over items (samples, rows, tap
// strips) of work multiply-adds each: workers take whole items, and only
// when each gets inferParallelMin multiply-adds. A batch-1 forward starts
// no goroutine, and neither does a training step at PRIONN's batch
// sizes: there the fan-out costs more than it saves.
func workChunk(work int) int {
	return (inferParallelMin + work - 1) / max(work, 1)
}

// stripe runs a k-deep m×n product's region kernel over the output:
// inline over the whole of it when the product is small (under
// gemmParallelMin multiply-adds) or only one stripe fits, else over
// at most MaxWorkers() column stripes (n ≥ m) or row stripes, aligned to
// the micro-tile's nr columns or mr rows so only the last stripe has a
// ragged edge. Workers own whole output cells and never split the k
// reduction — the determinism contract of the package.
func stripe[R interface{ Region(m0, m1, n0, n1 int) }](m, n, k, mr, nr int, region R) {
	cols := n >= m
	extent, align := m, mr
	if cols {
		extent, align = n, nr
	}
	stripes := min((extent+align-1)/align, MaxWorkers())
	if stripes == 1 || m*n*k < gemmParallelMin {
		region.Region(0, m, 0, n)
		return
	}
	per := alignUp((extent+stripes-1)/stripes, align)
	r := region // the workers' copy; capturing region would move it to the heap on the inline path too
	For(stripes, 1, Func(func(lo, hi int) {
		for s := lo; s < hi; s++ {
			e0, e1 := s*per, min((s+1)*per, extent)
			switch {
			case e0 >= e1:
			case cols:
				r.Region(0, m, e0, e1)
			default:
				r.Region(e0, e1, 0, n)
			}
		}
	}))
}
