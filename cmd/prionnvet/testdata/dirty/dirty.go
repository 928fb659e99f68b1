// Package dirty is the CLI test fixture: every registered checker
// fires at least once in this file, so main_test.go can pin the CLI's
// exit code, text rendering, and -json schema against the full checker
// registry. Each function below is the minimal trigger for the checker
// named in its comment (some launches intentionally trip several).
package dirty

import (
	"math/rand"
	"os"
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

// StartLeaky trips naked-goroutine AND bare-panic-goroutine on one
// launch: unjoined, and no recover.
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
