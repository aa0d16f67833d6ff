package finbench

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/cranknicolson"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

// workerCountKernels lists the deterministic batch kernels: each run
// prices a fresh batch, recording into c when c is non-nil, and returns
// every output it wrote. Monte Carlo and the Brownian bridge are absent on
// purpose: their per-worker RNG streams follow the decomposition.
func workerCountKernels() map[string]func(c *perf.Counts) []float64 {
	gen := workload.DefaultOptionGen
	mkt := workload.DefaultMarket
	const bsN = 2*blackscholes.VMLChunk + 13 // several VML chunks, partial last group
	const treeN, steps = 37, 64
	ks := map[string]func(c *perf.Counts) []float64{}
	for _, w := range []int{4, 8} {
		ks[fmt.Sprintf("blackscholes.Basic/w%d", w)] = func(c *perf.Counts) []float64 {
			a := gen.GenerateAOS(bsN)
			blackscholes.Basic(a, mkt, w, c)
			return a.Data
		}
		ks[fmt.Sprintf("blackscholes.Intermediate/w%d", w)] = func(c *perf.Counts) []float64 {
			s := gen.GenerateSOA(bsN)
			blackscholes.Intermediate(s, mkt, w, c)
			return append(s.Call, s.Put...)
		}
		ks[fmt.Sprintf("blackscholes.Advanced/w%d", w)] = func(c *perf.Counts) []float64 {
			s := gen.GenerateSOA(bsN)
			blackscholes.Advanced(s, mkt, w, c)
			return append(s.Call, s.Put...)
		}
		ks[fmt.Sprintf("blackscholes.GreeksBatch/w%d", w)] = func(c *perf.Counts) []float64 {
			s := gen.GenerateSOA(bsN)
			g := blackscholes.NewGreeksSOA(bsN)
			blackscholes.GreeksBatch(s, g, mkt, w, c)
			out := append(g.DeltaCall, g.DeltaPut...)
			return append(append(out, g.Gamma...), g.Vega...)
		}
		ks[fmt.Sprintf("binomial.Basic/w%d", w)] = func(c *perf.Counts) []float64 {
			a := gen.GenerateAOS(treeN)
			binomial.Basic(a, steps, mkt, w, c)
			return a.Data
		}
		ks[fmt.Sprintf("binomial.Intermediate/w%d", w)] = func(c *perf.Counts) []float64 {
			a := gen.GenerateAOS(treeN)
			binomial.Intermediate(a, steps, mkt, w, c)
			return a.Data
		}
		for _, unrolled := range []bool{false, true} {
			ks[fmt.Sprintf("binomial.Advanced/w%d/unrolled=%v", w, unrolled)] = func(c *perf.Counts) []float64 {
				a := gen.GenerateAOS(treeN)
				binomial.Advanced(a, steps, mkt, w, binomial.DefaultTile, unrolled, c)
				return a.Data
			}
		}
		ks[fmt.Sprintf("binomial.AdvancedTwoLevel/w%d", w)] = func(c *perf.Counts) []float64 {
			a := gen.GenerateAOS(treeN)
			binomial.AdvancedTwoLevel(a, steps, mkt, w, 32, 8, true, c)
			return a.Data
		}
		for _, level := range []cranknicolson.Level{cranknicolson.LevelRef, cranknicolson.LevelIntermediate, cranknicolson.LevelAdvanced} {
			ks[fmt.Sprintf("cranknicolson.Run/%v/w%d", level, w)] = func(c *perf.Counts) []float64 {
				a := gen.GenerateAOS(7)
				sweeps := cranknicolson.Run(level, a, 64, 50, w, mkt, c)
				return append(a.Data, float64(sweeps))
			}
		}
	}
	ks["binomial.RefScalar"] = func(c *perf.Counts) []float64 {
		a := gen.GenerateAOS(treeN)
		binomial.RefScalar(a, steps, mkt, c)
		return a.Data
	}
	return ks
}

// TestKernelsWorkerCountInvariant: the parallel regions split work into
// per-worker chunks, and the chunking must not show in the results. Every
// deterministic kernel must give bit-identical outputs and equal op counts
// at 1, 2, 3 and 8 workers (an odd count gives uneven chunk boundaries),
// counted or not.
func TestKernelsWorkerCountInvariant(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for name, run := range workerCountKernels() {
		runtime.GOMAXPROCS(1)
		var wantCounts perf.Counts
		want := run(&wantCounts)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			var c perf.Counts
			checkBits(t, fmt.Sprintf("%s counted at %d workers", name, procs), run(&c), want)
			if c != wantCounts {
				t.Errorf("%s at %d workers: counts %+v, want %+v", name, procs, c, wantCounts)
			}
			checkBits(t, fmt.Sprintf("%s uncounted at %d workers", name, procs), run(nil), want)
		}
	}
}

func checkBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: output %d = %.17g, want %.17g", label, i, got[i], want[i])
			return
		}
	}
}
