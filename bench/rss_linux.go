package main

import (
	"os"
	"syscall"
)

// peakRSSMB is a finished child's peak resident set; Linux reports
// Maxrss in kilobytes.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / 1e6
	}
	return 0
}
