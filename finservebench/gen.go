package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"time"

	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

// Inputs and schedules. Everything here is a pure function of the
// workload seed: the same seed gives the same contracts, portfolios,
// Zipf pool, request bodies and send times. finserve receives only the
// generated bodies.

// Request classes: the latency series a workload reports.
const (
	classPrice = iota
	classGreeks
	classScenario
	numClasses
)

var classNames = [numClasses]string{"price", "greeks", "scenario"}

var classPaths = [numClasses]string{"/price", "/greeks", "/scenario"}

// input is one request body plus what verification needs to recompute
// its answer.
type input struct {
	class int
	body  []byte
	n     int               // /price and /greeks options
	scen  *scenario.Request // /scenario
	want  []byte            // what a correct answer starts with (/scenario: equals)
}

// options decodes the contracts of a /price or /greeks body. Only the
// slow paths use it (a mismatch, the replay), so inputs do not keep the
// contracts twice.
func (in *input) options() []wire.Option {
	var req wire.GreeksRequest // /price bodies carry the same "options" field
	if err := json.Unmarshal(in.body, &req); err != nil {
		panic("finservebench: decode a generated body: " + err.Error())
	}
	return req.Options
}

// work is the pricing work an answer to in carries: the options of a
// /price or /greeks batch, or the cells (grid shocks and generated
// scenarios) of a /scenario request, each a revaluation of the whole
// portfolio.
func (in *input) work() int {
	if in.class == classScenario {
		return in.scen.NumCells()
	}
	return in.n
}

// job is one scheduled request: its due time from the phase start and
// the index of its input.
type job struct {
	due time.Duration
	in  int32
}

// plan is one timed phase: the inputs and each connection's schedule.
type plan struct {
	inputs []input
	users  [][]job
	dur    time.Duration
}

// scheduled counts the scheduled requests.
func (p *plan) scheduled() int {
	n := 0
	for _, u := range p.users {
		n += len(u)
	}
	return n
}

// seededRand derives an independent generator for one (seed, stream)
// pair, so that adding a stream never shifts another's draws.
func seededRand(seed int64, stream uint64) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

// schedule draws round(perSec*dur) send times spread over [0, dur).
// Gaps are the mean gap times a uniform factor in [0.5, 1.5): open-loop
// arrivals that are independent of the server and cannot bunch into
// bursts longer than the rate implies. The count is exact, so every seed
// yields the same number of samples.
func schedule(rng *rand.Rand, perSec float64, dur time.Duration) []time.Duration {
	n := int(math.Round(perSec * dur.Seconds()))
	if n <= 0 {
		return nil
	}
	cum := make([]float64, n+1)
	c := rng.Float64() // stagger the first send
	for i := 0; i <= n; i++ {
		cum[i] = c
		c += 0.5 + rng.Float64()
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(dur) * cum[i] / cum[n])
	}
	return out
}

// randomOptions draws European contracts over the same ranges as
// finserve's own load generator.
func randomOptions(rng *rand.Rand, n int) []wire.Option {
	opts := make([]wire.Option, n)
	for i := range opts {
		o := &opts[i]
		o.Spot = 50 + 100*rng.Float64()
		o.Strike = 50 + 100*rng.Float64()
		o.Expiry = 0.1 + 3*rng.Float64()
		if rng.Intn(2) == 1 {
			o.Type = "put"
		}
	}
	return opts
}

func priceInput(rng *rand.Rand, n int) input {
	req := wire.PriceRequest{Options: randomOptions(rng, n)}
	return expect(input{class: classPrice, body: mustJSON(&req), n: n}, req.Options)
}

func greeksInput(rng *rand.Rand, n int) input {
	req := wire.GreeksRequest{Options: randomOptions(rng, n)}
	return expect(input{class: classGreeks, body: mustJSON(&req), n: n}, req.Options)
}

// shockLadder spreads n shocks evenly over [-span, span].
func shockLadder(n int, span float64) []float64 {
	if n <= 1 {
		return []float64{0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = -span + 2*span*float64(i)/float64(n-1)
	}
	return out
}

// scenarioShape is a /scenario request's size: positions, the
// spot x vol x rate grid, and the scenarios per generator (one each of
// Heston, jump and basket).
type scenarioShape struct {
	positions int
	grid      [3]int
	gens      int
}

func scenarioInput(rng *rand.Rand, sh scenarioShape) input {
	req := &scenario.Request{
		Portfolio: make([]scenario.Position, sh.positions),
		Grid: scenario.Grid{
			SpotShocks: shockLadder(sh.grid[0], 0.2),
			VolShocks:  shockLadder(sh.grid[1], 0.05),
			RateShifts: shockLadder(sh.grid[2], 0.01),
		},
	}
	for i := range req.Portfolio {
		p := &req.Portfolio[i]
		p.Spot = 50 + 100*rng.Float64()
		p.Strike = 50 + 100*rng.Float64()
		p.Expiry = 0.1 + 3*rng.Float64()
		p.Quantity = float64(rng.Intn(9) + 1)
		if rng.Intn(2) == 1 {
			p.Quantity = -p.Quantity
		}
		if rng.Intn(2) == 1 {
			p.Type = "put"
		}
	}
	for _, model := range []string{scenario.ModelHeston, scenario.ModelJump, scenario.ModelBasket} {
		if sh.gens > 0 {
			req.Generators = append(req.Generators, scenario.Generator{
				Model: model, Scenarios: sh.gens, Seed: rng.Uint64() | 1,
			})
		}
	}
	return expect(input{class: classScenario, body: mustJSON(req), scen: req}, nil)
}

// mustJSON marshals request types that always marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("finservebench: marshal request: " + err.Error())
	}
	return b
}

// mixEntry is one request kind of a mix and its weight.
type mixEntry struct {
	weight float64
	make   func(rng *rand.Rand) input
}

// exactMix assigns n requests to mix entries in exact proportion to
// their weights (largest remainder), in seeded random order.
func exactMix(rng *rand.Rand, n int, mix []mixEntry) []int {
	total := 0.0
	for i := range mix {
		total += mix[i].weight
	}
	counts := make([]int, len(mix))
	rems := make([]float64, len(mix))
	left := n
	for i := range mix {
		share := mix[i].weight / total * float64(n)
		counts[i] = int(share)
		rems[i] = share - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	kinds := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			kinds = append(kinds, i)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// mixPlan schedules each connection at perUser requests/s over dur and
// draws a fresh input for every request, the kinds in exact mix
// proportions.
func mixPlan(seed int64, tag uint64, perUser []float64, dur time.Duration, mix []mixEntry) plan {
	p := plan{dur: dur, users: make([][]job, len(perUser))}
	for u, rate := range perUser {
		rng := seededRand(seed, tag<<8|uint64(u))
		p.addMix(u, rng, schedule(rng, rate, dur), mix)
	}
	return p
}

// addMix appends fresh mix inputs at the given send times to user u.
func (p *plan) addMix(u int, rng *rand.Rand, dues []time.Duration, mix []mixEntry) {
	kinds := exactMix(rng, len(dues), mix)
	for i, due := range dues {
		p.inputs = append(p.inputs, mix[kinds[i]].make(rng))
		p.users[u] = append(p.users[u], job{due: due, in: int32(len(p.inputs) - 1)})
	}
}

// zipfPool is a fixed set of /price batches re-sent with Zipf-skewed
// popularity, so that a response cache sees repeats.
type zipfPool struct {
	inputs []input
	cdf    []float64
}

func newZipfPool(seed int64, size, options int, s float64) *zipfPool {
	rng := seededRand(seed, 0x2195)
	zp := &zipfPool{inputs: make([]input, size), cdf: make([]float64, size)}
	sum := 0.0
	for i := range zp.inputs {
		zp.inputs[i] = priceInput(rng, options)
		sum += 1 / math.Pow(float64(i+1), s)
		zp.cdf[i] = sum
	}
	for i := range zp.cdf {
		zp.cdf[i] /= sum
	}
	return zp
}

// rank draws a pool index: rank r with weight 1/(r+1)^s.
func (zp *zipfPool) rank(rng *rand.Rand) int {
	i := sort.SearchFloat64s(zp.cdf, rng.Float64())
	if i >= len(zp.cdf) {
		i = len(zp.cdf) - 1
	}
	return i
}

// poolPlan schedules Zipf draws from the pool on the connections listed
// in poolRate (requests/s each), and mix draws on the others.
func poolPlan(seed int64, tag uint64, zp *zipfPool, poolRate, mixRate []float64, dur time.Duration, mix []mixEntry) plan {
	p := plan{dur: dur, users: make([][]job, len(poolRate))}
	p.inputs = append(p.inputs, zp.inputs...)
	for u := range poolRate {
		rng := seededRand(seed, tag<<8|uint64(u))
		for _, due := range schedule(rng, poolRate[u], dur) {
			p.users[u] = append(p.users[u], job{due: due, in: int32(zp.rank(rng))})
		}
		p.addMix(u, rng, schedule(rng, mixRate[u], dur), mix)
		sort.SliceStable(p.users[u], func(i, j int) bool { return p.users[u][i].due < p.users[u][j].due })
	}
	return p
}
