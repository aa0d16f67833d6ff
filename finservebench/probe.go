package main

import (
	"math"
	"strconv"
	"sync"
	"time"
)

// The host probe. On a shared host the useful work a CPU-second does
// drifts from minute to minute (other tenants' load on caches, memory
// and clocks), and whole runs move together. Before each saturation
// phase the benchmark times a fixed loop that uses none of finserve's
// code, and throughput_per_cpu_s is scaled by how fast the loop ran, so
// that host drift cancels and finserve's own cost remains.

// probeRef is hostProbe's rate on the 2-vCPU host the benchmark was
// sized on (Intel Xeon, Go 1.24). It only sets the scale of
// throughput_per_cpu_s: work per CPU-second of a host that fast.
const probeRef = 23000

// probeStepOps is the loop steps of one probe iteration.
const probeStepOps = 256

// hostProbe runs probeStep on procs goroutines at once for about d and
// returns the iterations per CPU-second of the process. It allocates
// nothing while it runs, so no collection runs within it; callers
// collect garbage first and keep finserve idle meanwhile, so that the
// process's CPU time is the probe's.
func hostProbe(procs int, d time.Duration) float64 {
	var wg sync.WaitGroup
	counts := make([]int, procs)
	cpu0 := processCPU()
	stop := time.Now().Add(d)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			xs, buf := newProbeState()
			n := 0
			for time.Now().Before(stop) {
				buf = probeStep(xs, buf, n)
				n++
			}
			counts[p] = n
		}(p)
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	total := 0
	for _, n := range counts {
		total += n
	}
	return ratio(float64(total), cpu.Seconds())
}

func newProbeState() ([]float64, []byte) {
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = 1 + float64(i)/float64(len(xs))
	}
	return xs, make([]byte, 0, 64)
}

// probeStep is one probe iteration: the float math and the float
// formatting and parsing that pricing and the JSON wire do, over a
// 256 KiB working set. len(xs) must be a power of two.
func probeStep(xs []float64, buf []byte, n int) []byte {
	mask := len(xs) - 1
	for i := 0; i < probeStepOps; i++ {
		x := xs[(n*probeStepOps+i)&mask]
		v := math.Exp(-x)*math.Log(x) + math.Sqrt(x)
		buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		y, _ := strconv.ParseFloat(string(buf), 64) // a formatted float parses
		xs[(n*probeStepOps+i+1)&mask] = 1 + y - math.Floor(y)
	}
	return buf
}
