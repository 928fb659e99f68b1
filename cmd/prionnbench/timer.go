//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for short, exact intervals. time.Sleep is not enough for
// an open-loop generator: an idle Go process sleeps in epoll_wait, whose
// timeout is whole milliseconds, so every arrival after an idle gap would
// be sent up to 1 ms late — and latency is timed from the due time, so
// that slop would read as latency (most of a cache hit's). A timerfd
// read through the runtime's poller wakes on the kernel's
// high-resolution timer instead, without spinning.
type sleeper struct {
	f *os.File // nil: the host refused a timerfd; fall back to time.Sleep
}

type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0o4000 // TFD_NONBLOCK: lets os.NewFile hand the fd to the poller
	tfdCloexec     = 0o2000000
)

func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}
}

func (s *sleeper) close() {
	if s.f != nil {
		_ = s.f.Close() // a timer holds no data
	}
}

// sleep blocks the calling goroutine for d.
func (s *sleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.f == nil {
		time.Sleep(d)
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	var armed bool
	err := s.control(func(fd uintptr) {
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		armed = errno == 0
	})
	var expirations [8]byte
	if err != nil || !armed {
		time.Sleep(d)
		return
	}
	if _, err := s.f.Read(expirations[:]); err != nil {
		time.Sleep(d) // the wait is what matters; a failed read just loses precision
	}
}

func (s *sleeper) control(fn func(fd uintptr)) error {
	rc, err := s.f.SyscallConn()
	if err != nil {
		return err
	}
	return rc.Control(fn)
}
