package main

import (
	"sort"
	"time"
)

// Percentiles follow one rule: a tail is reported at the highest
// candidate percentile that leaves at least minBeyond samples above it,
// and every tail is reported with its sample count and the percentile it
// actually is. p99 is the highest candidate.

// minBeyond is the least number of samples a reported tail percentile
// must leave above it.
const minBeyond = 10

// tailPermille lists the candidate tail percentiles in per-mille,
// highest first.
var tailPermille = []int{990, 950, 900, 750, 500}

// rankIndex is the 0-based nearest-rank index of the pm-th per-mille
// percentile of n sorted samples: ceil(pm*n/1000) - 1.
func rankIndex(n, pm int) int {
	i := (pm*n+999)/1000 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank pm-th
// per-mille percentile of n samples.
func beyond(n, pm int) int {
	if n == 0 {
		return 0
	}
	return n - rankIndex(n, pm) - 1
}

// tailPM returns the highest candidate percentile (per-mille) that n
// samples support, or 0 when even the median leaves fewer than
// minBeyond samples above it.
func tailPM(n int) int {
	for _, pm := range tailPermille {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// summary is a latency distribution reduced to its median and its
// supported tail.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailPM int     `json:"tail_permille"`
	Tail   float64 `json:"tail"`
	// Windows is the number of windows whose tails' median Tail is
	// (windowed); 0 means one tail over all samples.
	Windows     int       `json:"windows,omitempty"`
	WindowTails []float64 `json:"window_tails,omitempty"`
}

// summarize sorts a copy of xs and reduces it. With too few samples for
// any tail, Tail is the maximum and TailPM is 1000.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.P50 = v[rankIndex(len(v), 500)]
	s.TailPM = tailPM(len(v))
	if s.TailPM == 0 {
		s.TailPM = 1000
		s.Tail = v[len(v)-1]
	} else {
		s.Tail = v[rankIndex(len(v), s.TailPM)]
	}
	return s
}

// Windowed summaries. A timed phase's median and tail are the medians of
// the medians and tails of consecutive windows of it, each of at least
// minWindowSamples samples, so that one host stall (a VM descheduled for
// a few milliseconds, a GC pause) or a slow stretch of the shared host
// moves some windows and not the reported figure.
const (
	maxWindows       = 16
	minWindowSamples = 100
)

// windowed summarizes samples taken at times ts over up to maxWindows
// consecutive windows of equal sample counts: P50 is the median of the
// windows' medians, Tail the median of their tails, and TailPM the
// percentile those windows support. N counts all samples.
func windowed(ts []time.Duration, xs []float64) summary {
	s := summarize(xs)
	w := len(xs) / minWindowSamples
	if w > maxWindows {
		w = maxWindows
	}
	if w <= 1 {
		s.Windows = 1
		return s
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ts[order[a]] < ts[order[b]] })
	var p50s, tails []float64
	s.TailPM = 1000
	for k := 0; k < w; k++ {
		lo, hi := k*len(xs)/w, (k+1)*len(xs)/w
		b := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			b = append(b, xs[i])
		}
		bs := summarize(b)
		p50s = append(p50s, bs.P50)
		tails = append(tails, bs.Tail)
		if bs.TailPM < s.TailPM {
			s.TailPM = bs.TailPM
		}
	}
	s.P50, s.Tail = median(p50s), median(tails)
	s.Windows, s.WindowTails = w, tails
	return s
}

// percentile is the nearest-rank pm-th per-mille percentile of xs (0
// for no samples); it does not apply the tail rule.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return v[rankIndex(len(v), pm)]
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 500) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
