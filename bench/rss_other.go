//go:build !linux

package main

import "os"

// peakRSSMB is 0 where the benchmark does not know the unit of Maxrss.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
