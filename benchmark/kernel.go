package main

import "time"

// The reference kernel: a fixed piece of pure-Go work that is the benchmark's
// own, never the program's, timed once after every pass. It is a diagnostic
// printed beside the timings and never applied to them: two runs whose
// readings differ by more than a tenth did not see the same machine. It
// allocates nothing, so it starts no collection inside the window.

const (
	kernelWords  = 1 << 16 // 512 KB: larger than L2's share, smaller than L3
	kernelRounds = 160     // about 20 ms on the 2-vCPU sandbox the benchmark was sized on
)

var (
	kernelBuf  = make([]uint64, kernelWords)
	kernelSink uint64
)

// refKernelMS times the kernel once: a xorshift stream scattered into a
// buffer, so it is slowed by contention for cache and memory as well as CPU.
func refKernelMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for round := 0; round < kernelRounds; round++ {
		for range kernelBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			kernelBuf[x>>48] += x
		}
	}
	kernelSink = x
	return float64(time.Since(start)) / 1e6
}
