// Package dirty is the CLI test fixture: every registered checker
// fires at least once in this file, so main_test.go can pin the CLI's
// exit code, text rendering, and -json schema against the full checker
// registry. Each function below is the minimal trigger for the checker
// named in its comment (some launches intentionally trip several).
package dirty

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Compare trips float-eq.
func Compare(a, b float64) bool {
	return a == b
}

// Roll trips unseeded-rand.
func Roll() int {
	return rand.Intn(6)
}

// DropErr trips unchecked-err.
func DropErr(f *os.File) {
	f.Close()
}

func doWork() error { return nil }

// StartLeaky trips naked-goroutine, bare-panic-goroutine, AND
// goroutine-lifecycle on one launch: unjoined, no recover, and parked
// forever on a send nobody reads.
func StartLeaky() {
	errs := make(chan error)
	go func() {
		err := doWork()
		if err != nil {
			panic(err)
		}
		errs <- err
	}()
}

// CaptureLoop trips loopvar-capture (joined, so the launch itself is
// not naked).
func CaptureLoop(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = it * 2
		}()
	}
	wg.Wait()
}

var hits int

// Bump trips mutable-pkg-var.
func Bump() {
	hits++
}

// Values trips map-order.
func Values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// Shadow trips seed-flow.
func Shadow(rng *rand.Rand) float64 {
	total := rng.Float64()
	if total > 0.5 {
		rng := rand.New(rand.NewSource(2))
		total += rng.Float64()
	}
	return total
}

// Elapsed trips time-dep.
func Elapsed() float64 {
	start := time.Now()
	Compare(1, 2)
	return time.Since(start).Seconds()
}

// Gather trips nondet-select.
func Gather(a, b chan float64) float64 {
	var sum float64
	for i := 0; i < 2; i++ {
		select {
		case v := <-a:
			sum += v
		case v := <-b:
			sum += v
		}
	}
	return sum
}

func helper(ctx context.Context) {}

// Handler trips ctx-propagation.
func Handler(ctx context.Context) {
	helper(context.Background())
}

type buf struct{ data []byte }

type pool struct{ free []*buf }

func (p *pool) Get(n int) *buf { return &buf{data: make([]byte, n)} }

func (p *pool) Put(b *buf) { p.free = append(p.free, b) }

// Leak trips arena-leak.
func Leak(p *pool) byte {
	b := p.Get(8)
	return b.data[0]
}

type store struct{ mu sync.Mutex }

// Save trips lock-held-io.
func (s *store) Save(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(path, data, 0o600)
}

var total int64

func BumpAtomic() {
	atomic.AddInt64(&total, 1)
}

// ReadPlain trips atomic-plain-mix.
func ReadPlain() int64 {
	return total
}

type gauge struct {
	mu sync.Mutex
	n  int
}

// RunGauge trips guarded-field: the lock-free write races with the
// goroutine writing under g.mu.
func RunGauge(g *gauge) {
	go g.loop()
	g.n = 7
}

func (g *gauge) loop() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

var (
	muA sync.Mutex
	muB sync.Mutex
)

// LockAB/LockBA trip lock-order-cycle.
func LockAB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func LockBA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// AddInside trips waitgroup-misuse.
func AddInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1)
		defer wg.Done()
	}()
	wg.Wait()
}
