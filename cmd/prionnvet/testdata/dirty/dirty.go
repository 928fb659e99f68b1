// Package dirty is the CLI test fixture: every registered checker
// fires at least once in this file, so main_test.go can pin the CLI's
// exit code, text rendering, and -json schema against the full checker
// registry. Each function below is the minimal trigger for the checker
// named in its comment.
package dirty

import (
	"os"
	"time"
)

// DropErr trips unchecked-err.
func DropErr(f *os.File) {
	f.Close()
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

// Elapsed trips time-dep.
func Elapsed() float64 {
	start := time.Now()
	Bump()
	return time.Since(start).Seconds()
}

func doWork() error { return nil }

// StartLeaky trips naked-goroutine: the spawner never receives from
// errs.
func StartLeaky() {
	errs := make(chan error)
	go func() {
		errs <- doWork()
	}()
}
