package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a deadline with the precision an open-loop
// generator needs. The Go runtime's timers are no use here: an idle P
// waits in epoll with a whole-millisecond timeout, so time.Sleep wakes
// up to 1 ms late, several times the latency being measured. A timerfd
// read through the runtime's network poller instead wakes the goroutine
// the way a socket would, a few tens of microseconds after the kernel's
// high-resolution timer fires, without spinning on a core or parking a
// P in a blocking syscall.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleepUntil returns once t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: a one-shot d from now.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}
