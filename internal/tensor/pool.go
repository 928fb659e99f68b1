package tensor

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Arena is a size-bucketed free list of tensors used to take per-batch
// allocation off the training hot path. Get returns a tensor whose
// backing array is recycled from an earlier Put when one of the right
// size class is available; Put hands a tensor back for reuse.
//
// Contract:
//   - Get returns UNINITIALIZED memory: callers must overwrite every
//     element (GEMM destinations and im2col buffers do) or call Zero.
//   - After Put(t), the caller must not touch t again; the same backing
//     array may be handed to the next Get.
//   - Put is optional. A tensor that is never returned is simply
//     reclaimed by the garbage collector; the arena holds no reference
//     to checked-out tensors.
//
// All methods are safe for concurrent use. Size classes are powers of
// two, so a Get/Put cycle at a steady shape always hits the same bucket
// and steady-state training performs zero heap allocation on the paths
// threaded through the arena (see the AllocsPerRun guards in
// pool_test.go).
type Arena struct {
	mu   sync.Mutex
	free map[uint][]*Tensor

	gets atomic.Int64
	puts atomic.Int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[uint][]*Tensor)}
}

// defaultArena backs the package-level kernels (GEMM packing buffers,
// conv scratch) and the nn layers. It is never reassigned; its own mutex
// guards the free lists.
var defaultArena = NewArena()

// DefaultArena returns the shared package-level arena, the one every
// kernel's scratch and check-outs come from.
func DefaultArena() *Arena { return defaultArena }

// sizeClass returns the power-of-two bucket for a payload of n floats.
func sizeClass(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// Get returns a tensor with the given shape whose contents are
// unspecified (recycled memory is not cleared).
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Keep the shape slice out of the message: referencing it here
			// would make every Get's variadic argument escape to the heap,
			// breaking the zero-alloc steady state.
			panic(fmt.Sprintf("tensor: negative dimension %d in arena Get", d))
		}
		n *= d
	}
	a.gets.Add(1)
	class := sizeClass(n)
	a.mu.Lock()
	bucket := a.free[class]
	if len(bucket) > 0 {
		t := bucket[len(bucket)-1]
		a.free[class] = bucket[:len(bucket)-1]
		a.mu.Unlock()
		t.Data = t.Data[:n]
		if cap(t.Shape) < len(shape) {
			// Headroom up to rank 8 so a buffer cycling between ranks
			// (conv [N,C,H,W] one batch, a rank-2 GEMM panel the next)
			// does not reallocate its shape slice every Get.
			t.Shape = make([]int, 0, max(len(shape), 8))
		}
		t.Shape = append(t.Shape[:0], shape...)
		return t
	}
	a.mu.Unlock()
	data := make([]float32, n, 1<<class)
	return &Tensor{Shape: append(make([]int, 0, max(len(shape), 8)), shape...), Data: data}
}

// Put returns a tensor obtained from Get (or any tensor owning its
// backing array) to the arena. Put(nil) is a no-op, so callers can
// unconditionally recycle optional scratch.
func (a *Arena) Put(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.Data)
	if c == 0 || c != 1<<sizeClass(c) {
		// Foreign tensor whose capacity is not a size class (e.g. a view
		// into a larger buffer): pooling it would corrupt bucket sizing,
		// and a view's owner may still be live. Drop it for the GC.
		return
	}
	a.puts.Add(1)
	class := sizeClass(c)
	a.mu.Lock()
	a.free[class] = append(a.free[class], t)
	a.mu.Unlock()
}

// Outstanding reports Get calls not yet matched by a Put — the leak
// check used by tests. Tensors intentionally retained by the caller
// (layer outputs) count as outstanding until returned.
func (a *Arena) Outstanding() int {
	return int(a.gets.Load() - a.puts.Load())
}

// Reuse recycles prev (which may be nil) and returns a tensor of the
// given shape. It is the one-liner for layer scratch that is dead by the
// time the next batch needs the same buffer: Put then Get, which at a
// steady shape hands back the same backing array without touching the
// heap.
func (a *Arena) Reuse(prev *Tensor, shape ...int) *Tensor {
	a.Put(prev)
	return a.Get(shape...)
}

// Scope is a checkout scope: every Get is recorded and returned to the
// arena in one Release call. It suits multi-scratch computations where
// threading individual Puts past early returns would be error-prone.
// A Scope is not safe for concurrent use; Release must be called exactly
// once.
type Scope struct {
	a     *Arena
	taken []*Tensor
}

// Scope opens a new checkout scope on the arena.
func (a *Arena) Scope() *Scope { return &Scope{a: a} }

// Get returns a scope-tracked tensor (contents unspecified, as Arena.Get).
func (s *Scope) Get(shape ...int) *Tensor {
	t := s.a.Get(shape...)
	s.taken = append(s.taken, t)
	return t
}

// Release returns every tensor obtained through the scope to the arena.
func (s *Scope) Release() {
	for _, t := range s.taken {
		s.a.Put(t)
	}
	s.taken = s.taken[:0]
}
