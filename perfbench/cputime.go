package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time the whole process has used so far (user plus
// system, every thread).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
