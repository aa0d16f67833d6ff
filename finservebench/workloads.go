package main

import (
	"math/rand"
	"time"
)

// The workloads. Sizes and rates were set from measurements on a 2-vCPU
// host (README.md); each is a fixed function of the seed.

// price_lone: two open-loop users send a fixed mix of small and bulk
// closed-form /price batches and /greeks batches, with fresh contracts on
// every request, to one replica with its cache off (the `finserve serve`
// default). The request path does nearly all the work; router, cache,
// scenario engine and stream hub sit idle.
const (
	loneSmall  = 16
	loneBulk   = 1024
	loneGreeks = 64
	loneOpRate = 250 // requests/s over both users
	// loneSatPool is the distinct inputs per connection that the
	// saturation phase cycles through (the cache is off, so repeats cost
	// the server the same as fresh contracts).
	loneSatPool = 100
)

func loneMix() []mixEntry {
	return []mixEntry{
		{5, func(rng *rand.Rand) input { return priceInput(rng, loneSmall) }},
		{1, func(rng *rand.Rand) input { return priceInput(rng, loneBulk) }},
		{4, func(rng *rand.Rand) input { return greeksInput(rng, loneGreeks) }},
	}
}

func runPriceLone(r *run) error {
	mix := loneMix()
	rng := seededRand(r.seed, 0x5e70)
	w := &reqWorkload{
		cfg:     stackConfig{replicas: 1},
		setup:   []input{priceInput(rng, 1), greeksInput(rng, 1)},
		primary: classPrice,
		aux:     classGreeks,
		operating: func(tag uint64, dur time.Duration) plan {
			return mixPlan(r.seed, tag, []float64{loneOpRate / 2, loneOpRate / 2}, dur, mix)
		},
		saturation: func(tag uint64) plan {
			return mixPlan(r.seed, tag, []float64{loneSatPool, loneSatPool}, time.Second, mix)
		},
	}
	return w.run(r)
}

// routed_mix: the shard router fronts two replicas with its cache on.
// User 0 re-sends 256-option /price batches from a seeded pool with Zipf
// popularity; the pool's responses are several times the cache budget,
// so evictions continue and the hit ratio stays below 1. User 1 sends
// /scenario requests that the router scatters across both replicas. In
// the saturation phase both users send back to back, so the scenario
// path's cost shows in the saturated work per CPU-second.
const (
	routedPool       = 512
	routedOptions    = 256
	routedZipfS      = 1.1
	routedCacheBytes = 1 << 20
	routedPriceRate  = 120 // requests/s, user 0
	routedScenRate   = 25  // requests/s, user 1
	// routedSatDraws is the Zipf draws that user 0 cycles through in the
	// saturation phase, and routedSatScens the distinct /scenario
	// requests user 1 cycles through.
	routedSatDraws = 4000
	routedSatScens = 16
)

var routedScenario = scenarioShape{positions: 24, grid: [3]int{12, 6, 4}, gens: 64}

// setupScenario is the smallest request that still splits over both
// replicas: set-up waits for each endpoint to answer once, and a small
// request keeps the kernels' share of set-up time small.
var setupScenario = scenarioShape{positions: 1, grid: [3]int{2, 1, 1}}

func runRoutedMix(r *run) error {
	zp := newZipfPool(r.seed, routedPool, routedOptions, routedZipfS)
	scen := []mixEntry{{1, func(rng *rand.Rand) input { return scenarioInput(rng, routedScenario) }}}
	rng := seededRand(r.seed, 0x5e71)
	w := &reqWorkload{
		cfg:     stackConfig{replicas: 2, router: true, cacheBytes: routedCacheBytes},
		setup:   []input{priceInput(rng, 1), scenarioInput(rng, setupScenario)},
		primary: classPrice,
		aux:     classScenario,
		operating: func(tag uint64, dur time.Duration) plan {
			return poolPlan(r.seed, tag, zp, []float64{routedPriceRate, 0}, []float64{0, routedScenRate}, dur, scen)
		},
		saturation: func(tag uint64) plan {
			return poolPlan(r.seed, tag, zp, []float64{routedSatDraws, 0}, []float64{0, routedSatScens}, time.Second, scen)
		},
	}
	return w.run(r)
}
