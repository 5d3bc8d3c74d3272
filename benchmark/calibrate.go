package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The hosts this benchmark runs on are shared. Their speed drifts by ±15%
// over tens of minutes, the same way for every workload: twenty runs of
// one binary, an hour apart end to end, moved all five workloads'
// throughput together between 0.75 and 1.13 of the median. No statistic
// inside a ten-second run removes that, so every timed sample is taken
// together with a reading of how fast the machine is right then, and the
// time-based metrics are reported at the reference speed in spec.json
// (calibration_nominal): throughput divided, times multiplied, by
// measured/nominal. The reading uses no code of the repo, so a change to
// the repo cannot move it. The raw values stay in the result file.

// calibrationTime is how long one reading spins.
const calibrationTime = 60 * time.Millisecond

// speedTables are the kernel's tables, one per processor, allocated once:
// a reading precedes every pass, and 4 MiB of fresh garbage per processor
// each time would move the collector's schedule inside the passes. Their
// contents do not matter.
var (
	speedTables     [][]uint64
	speedTablesOnce sync.Once
)

// machineSpeed spins a fixed kernel — xorshift over a 4 MiB table, so
// arithmetic and cache misses both count — on every processor at once for
// calibrationTime and returns table updates per microsecond, summed over
// the processors.
func machineSpeed() float64 {
	n := runtime.GOMAXPROCS(0)
	speedTablesOnce.Do(func() {
		speedTables = make([][]uint64, n)
		for g := range speedTables {
			speedTables[g] = make([]uint64, 1<<19)
		}
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	rates := make([]float64, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := speedTables[g]
			x := uint64(88172645463325252 + g)
			updates := 0
			start := time.Now()
			for !stop.Load() {
				for k := 0; k < 1024; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					table[x&(1<<19-1)] += x
				}
				updates += 1024
			}
			rates[g] = float64(updates) / float64(time.Since(start).Microseconds())
		}()
	}
	time.Sleep(calibrationTime)
	stop.Store(true)
	wg.Wait()
	return sum(rates)
}
