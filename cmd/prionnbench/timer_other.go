//go:build !linux

package main

import "time"

// sleeper is time.Sleep where there is no timerfd; see timer.go.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (s *sleeper) close() {}

func (s *sleeper) sleep(d time.Duration) { time.Sleep(d) }
