package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/wire"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n, pm int
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 500}, {40, 750}, {100, 900},
		{199, 900}, {200, 950}, {999, 950}, {1000, 990}, {100000, 990},
	}
	for _, c := range cases {
		if got := tailPM(c.n); got != c.pm {
			t.Errorf("tailPM(%d) = %d, want %d", c.n, got, c.pm)
		}
		if c.pm > 0 && beyond(c.n, c.pm) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond, want >= %d", c.n, c.pm/10, beyond(c.n, c.pm), minBeyond)
		}
	}
	// 1000 samples 1..1000: p99 by nearest rank is 990, leaving exactly 10 above.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailPM != 990 || s.Tail != 990 || s.P50 != 500 || s.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v, want p50 500, p99 990", s)
	}
	if s := summarize(xs[:5]); s.TailPM != 1000 || s.Tail != 1000 {
		t.Errorf("too few samples: %+v, want the maximum reported as p100", s)
	}
}

func TestWindowedTailIgnoresOneStall(t *testing.T) {
	const n = 1000
	ts := make([]time.Duration, n)
	xs := make([]float64, n)
	for i := range xs {
		ts[i] = time.Duration(i) * time.Millisecond
		xs[i] = 1 + float64(i%100)/100 // 1.00 .. 1.99 in every window
	}
	for i := 100; i < 130; i++ { // one stall in the first window
		xs[i] = 50
	}
	s := windowed(ts, xs)
	if want := min(maxWindows, n/minWindowSamples); s.Windows != want {
		t.Fatalf("windows = %d, want %d", s.Windows, want)
	}
	if s.Tail > 2 {
		t.Errorf("windowed tail %v moved by a stall confined to one window", s.Tail)
	}
	if whole := summarize(xs); whole.Tail != 50 {
		t.Errorf("unwindowed p99 = %v; the stall should set it", whole.Tail)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 40},
		{Parent: 1, Start: 30, End: 60},  // overlaps the first
		{Parent: 1, Start: 35, End: 50},  // inside both
		{Parent: 1, Start: 80, End: 120}, // runs past the parent
		{Parent: 1, Start: -5, End: 2},   // starts before it
	}
	// Covered: [0,2) + [10,60) + [80,100) = 72.
	if got := selfTime(parent, children); got != 28 {
		t.Errorf("selfTime = %d, want 28", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func planEqual(a, b plan) bool {
	if len(a.inputs) != len(b.inputs) || len(a.users) != len(b.users) {
		return false
	}
	for i := range a.inputs {
		if !bytes.Equal(a.inputs[i].body, b.inputs[i].body) {
			return false
		}
	}
	for u := range a.users {
		if len(a.users[u]) != len(b.users[u]) {
			return false
		}
		for k := range a.users[u] {
			if a.users[u][k] != b.users[u][k] {
				return false
			}
		}
	}
	return true
}

func TestPlansAreSeedDeterministic(t *testing.T) {
	mix := loneMix()
	rates := []float64{100, 100}
	a := mixPlan(7, tagOperating, rates, time.Second, mix)
	b := mixPlan(7, tagOperating, rates, time.Second, mix)
	if !planEqual(a, b) {
		t.Fatal("the same seed gave different price_lone plans")
	}
	if c := mixPlan(8, tagOperating, rates, time.Second, mix); planEqual(a, c) {
		t.Fatal("different seeds gave the same plan")
	}
	if a.scheduled() != 200 {
		t.Errorf("scheduled %d requests, want exactly 200", a.scheduled())
	}
	counts := map[int]int{}
	for _, in := range a.inputs {
		counts[in.n]++
	}
	if counts[loneSmall] != 100 || counts[loneBulk] != 20 || counts[loneGreeks] != 80 {
		t.Errorf("mix counts %v, want exact 5:1:4 shares", counts)
	}

	zp := newZipfPool(7, 32, 8, routedZipfS)
	scen := scenarioShape{positions: 4, grid: [3]int{2, 2, 2}, gens: 2}
	mk := func(seed int64) plan {
		return poolPlan(seed, tagOperating, zp, []float64{50, 0}, []float64{0, 10}, time.Second,
			[]mixEntry{{1, func(rng *rand.Rand) input { return scenarioInput(rng, scen) }}})
	}
	if !planEqual(mk(7), mk(7)) {
		t.Fatal("the same seed gave different routed_mix plans")
	}
	for _, j := range mk(7).users[0] {
		if int(j.in) >= len(zp.inputs) {
			t.Fatal("a Zipf job does not point into the pool")
		}
	}
	if !bytes.Equal(newZipfPool(7, 32, 8, routedZipfS).inputs[5].body, zp.inputs[5].body) {
		t.Fatal("the Zipf pool is not seed-deterministic")
	}
}

func TestVerifierRejectsCorruptPriceBody(t *testing.T) {
	opts := randomOptions(seededRand(3, 1), 16)
	b := finbench.NewBatch(len(opts))
	for i, o := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = o.Spot, o.Strike, o.Expiry
	}
	if err := finbench.PriceBatch(b, market, finbench.LevelAdvanced); err != nil {
		t.Fatal(err)
	}
	resp := &wire.PriceResponse{Method: "closed-form", Engine: "batch-advanced", Config: defaultConfig, BatchOptions: len(opts), ElapsedUS: 812}
	for i, o := range opts {
		v := b.Calls[i]
		if o.Type == "put" {
			v = b.Puts[i]
		}
		resp.Results = append(resp.Results, wire.Result{Price: v})
	}
	good, ok := wire.AppendPriceResponse(nil, resp)
	if !ok {
		t.Fatal("encode")
	}
	in := expect(input{class: classPrice, body: mustJSON(&wire.PriceRequest{Options: opts}), n: len(opts)}, opts)
	if n, err := checkAnswer(&in, good); err != nil || n != len(opts) {
		t.Fatalf("a correct body was rejected: %v", err)
	}
	if !in.matches(good) {
		t.Fatal("a correct body failed the byte check")
	}
	resp.Results[7].Price = math.Nextafter(resp.Results[7].Price, math.Inf(1)) // one ulp off
	bad, _ := wire.AppendPriceResponse(nil, resp)
	if _, err := checkAnswer(&in, bad); err == nil {
		t.Fatal("a body one ulp off was accepted")
	}
	if in.matches(bad) {
		t.Fatal("a body one ulp off passed the byte check")
	}
	resp.Results[7].Price = b.Calls[7]
	if opts[7].Type == "put" {
		resp.Results[7].Price = b.Puts[7]
	}
	relaid, err := json.MarshalIndent(resp, "", " ") // same values, other bytes
	if err != nil {
		t.Fatal(err)
	}
	p := plan{inputs: []input{in}, users: [][]job{{{}, {}, {}}}}
	var tl tally
	tl.checkOutcomes(&p, [][]outcome{{
		{status: 200},
		{status: 200, mismatch: bad},
		{status: 200, mismatch: relaid},
	}})
	if tl.attempted != 3 || tl.failed != 1 || tl.verified != 2 || tl.lateChecked != 2 || tl.firstErr == nil {
		t.Fatalf("tally %+v: want the corrupt body counted as one failure of three", tl)
	}
}

// The expected bytes must be what finserve sends. An answer that matches
// only value by value is kept and checked after its phase, so a layout
// the byte compare misses would move every answer onto that path.
func TestExpectedBytesMatchServer(t *testing.T) {
	rng := seededRand(9, 1)
	price, greeks := priceInput(rng, 16), greeksInput(rng, 8)
	scen := scenarioInput(rng, scenarioShape{positions: 2, grid: [3]int{2, 2, 1}, gens: 4})
	for _, tc := range []struct {
		cfg stackConfig
		ins []*input
	}{
		{stackConfig{replicas: 1}, []*input{&price, &greeks, &scen}},
		{stackConfig{replicas: 2, router: true, cacheBytes: 1 << 20}, []*input{&price, &scen}},
	} {
		st, err := startStack(tc.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.cfg.router {
			if err := st.waitRoutable(); err != nil {
				st.close()
				t.Fatal(err)
			}
		}
		c := newConn()
		for _, in := range tc.ins {
			for range 2 { // through the router, the second /price is a cache hit
				var o outcome
				c.do(st.base, in, &o, time.Now(), nil)
				if o.err != nil || o.mismatch != nil {
					t.Errorf("%s (router %v): err %v, bytes differ %v", classPaths[in.class], tc.cfg.router, o.err, o.mismatch != nil)
				}
			}
		}
		c.close()
		st.close()
	}
}

// A request still unsent when an open-loop phase ends is a failure; one
// a closed-loop phase did not reach is not an attempt.
func TestBacklogCountsAsFailure(t *testing.T) {
	p := plan{inputs: []input{{class: classPrice}}, users: [][]job{{{}, {}}}}
	var tl tally
	tl.checkOutcomes(&p, [][]outcome{{
		{unsent: true, err: errBacklog},
		{unsent: true},
	}})
	if tl.attempted != 1 || tl.failed != 1 || tl.verified != 0 {
		t.Fatalf("tally %+v: want the backlog as the one failed attempt", tl)
	}
	ts, xs := latencies(&p, [][]outcome{{{unsent: true, err: errBacklog}, {unsent: true}}}, classPrice)
	if len(ts) != 1 || !math.IsInf(xs[0], 1) {
		t.Fatalf("latencies %v: want the backlog as one infinite sample", xs)
	}
}

func TestVerifierRejectsCorruptStreamEntry(t *testing.T) {
	m := finbench.Market{Rate: 0.021, Volatility: 0.29}
	e := stream.Entry{ID: 3, Type: "put", Strike: 105, Expiry: 0.75, Spot: 98.5, Vol: m.Volatility, Rate: m.Rate}
	b := finbench.NewBatch(1)
	b.Spots[0], b.Strikes[0], b.Expiries[0] = e.Spot, e.Strike, e.Expiry
	if err := finbench.PriceBatch(b, m, finbench.LevelAdvanced); err != nil {
		t.Fatal(err)
	}
	g, err := finbench.ComputeGreeks(finbench.Option{Type: finbench.Put, Style: finbench.European,
		Spot: e.Spot, Strike: e.Strike, Expiry: e.Expiry}, m)
	if err != nil {
		t.Fatal(err)
	}
	e.Price, e.Delta, e.Gamma, e.Vega, e.Theta, e.Rho = b.Puts[0], g.DeltaPut, g.Gamma, g.Vega, g.ThetaPut, g.RhoPut
	if err := checkEntry(&e); err != nil {
		t.Fatalf("a correct entry was rejected: %v", err)
	}
	bad := e
	bad.Gamma = math.Nextafter(bad.Gamma, 0)
	if err := checkEntry(&bad); err == nil {
		t.Fatal("an entry with a corrupted gamma was accepted")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables the runs
// report in step with the repository's BENCHMARK.json.
// The host probe must not allocate: a collection inside it would charge
// it with finserve's heap.
func TestProbeStepAllocatesNothing(t *testing.T) {
	xs, buf := newProbeState()
	n := 0
	if a := testing.AllocsPerRun(100, func() { buf = probeStep(xs, buf, n); n++ }); a != 0 {
		t.Fatalf("probeStep allocates %v times per call", a)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s/%s here, %s/%s in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i := range workloads {
		if workloads[i].name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i].name, spec.Workloads[i].Name)
		}
	}
}
