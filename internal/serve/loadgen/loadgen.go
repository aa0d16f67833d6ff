// Package loadgen drives a finserve instance with a configurable request
// mix and verifies the protocol's guarantees from the outside: every 200
// must bit-match the library when recomputed from the effective
// method/config the response reports, overload must answer with 503/429
// (never another 5xx), and cancelled work must stop reaching the parallel
// pool (the scheduler counters in /statsz freeze). The e2e smoke gate is
// this package plus a shell script; all assertions live here so the
// script needs no JSON tooling.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finbench"
	"finbench/internal/serve"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/shard"
	"finbench/internal/serve/wire"
)

// Options configures a load-generation run.
type Options struct {
	// BaseURL is the server root, e.g. http://127.0.0.1:8123.
	BaseURL string
	// Concurrency is the number of client workers (default 4).
	Concurrency int
	// Requests is the total request budget across workers (default 64).
	Requests int
	// Mix maps wire method names (plus "greeks") to integer weights.
	// Empty means closed-form only.
	Mix map[string]int
	// OptionsPerRequest is the batch size of each request (default 8).
	OptionsPerRequest int
	// DeadlineMS is sent as deadline_ms when > 0.
	DeadlineMS int64
	// Config overrides the numeric parameters sent with each request.
	Config wire.Config
	// Verify recomputes every 200 response against the library and counts
	// mismatches.
	Verify bool
	// Seed makes the generated option stream reproducible (default 1).
	Seed int64
	// Timeout bounds each HTTP request (default 60s).
	Timeout time.Duration

	// ZipfPool enables the Zipf contract-mix mode: instead of drawing
	// fresh contracts per request, each pricing request re-sends one of
	// ZipfPool pre-generated batches, chosen by a Zipf(s = ZipfS) rank
	// distribution — rank r drawn with weight 1/(r+1)^s. The pool is
	// seed-deterministic, so repeated runs replay the same hot set.
	// ZipfS 0 is uniform over the pool; realistic request skew is
	// s ≈ 1.0–1.3. Whole batches repeat (not just single contracts)
	// because a response cache is keyed by the full batch digest.
	// Greeks requests are unaffected.
	ZipfPool int
	ZipfS    float64

	// Scenario switches the run to POST /scenario: every request prices a
	// portfolio of OptionsPerRequest positions across a ScenarioGrid
	// (spot x vol x rate shock counts, default 5x3x3) plus, when
	// ScenarioGens > 0, one Heston, one jump and one basket generator of
	// that many scenarios each. With Verify set, every 200 body must be
	// byte-identical to the library's own evaluate+finalize — the
	// scatter-gather reproducibility gate. Mix/Wire/ZipfPool are ignored
	// in this mode.
	Scenario     bool
	ScenarioGrid [3]int
	ScenarioGens int

	// Wire selects the /price request framing for closed-form batches:
	// "json" (or empty) sends the AOS JSON body, "columnar" sends the
	// binary columnar frame. Columnar is closed-form-only, so other mix
	// methods (and greeks) always stay on JSON. With Verify set, every
	// columnar 200 is additionally replayed as a JSON request and the two
	// responses must be bit-identical — the cross-framing guarantee,
	// checked through whatever stack BaseURL points at (replica or
	// router).
	Wire string
}

// Report is the outcome of a run.
type Report struct {
	Requests  int            `json:"requests"`
	Codes     map[int]int    `json:"codes"`
	Errors    map[string]int `json:"errors,omitempty"`
	Verified  int            `json:"verified"`
	Mismatch  int            `json:"mismatch"`
	Coalesced int            `json:"coalesced"`
	Degraded  int            `json:"degraded"`
	// Columnar counts 200s answered over the binary columnar framing.
	Columnar int `json:"columnar,omitempty"`
	// Scattered counts scenario 200s the router split across replicas
	// (X-Finserve-Partitions > 1); zero against a bare replica.
	Scattered int `json:"scattered,omitempty"`
	// Retries and HedgeWins are read from the router's X-Finserve-*
	// response headers (zero against a bare replica): retries is the sum
	// of attempts beyond the first across all answered requests.
	Retries   int   `json:"retries"`
	HedgeWins int   `json:"hedge_wins"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// P50MS / P99MS are per-request wall-clock latency percentiles over
	// every request, including errored ones (a refused connection is an
	// answer the client waited for).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Cache outcome counts observed from the X-Finserve-Cache response
	// header (absent against a cache-disabled server): hits served from
	// the store, misses computed as singleflight leaders, collapsed
	// requests served from a concurrent leader's computation, and
	// bypasses (requests the cache tier declined to consider).
	CacheHits      int `json:"cache_hits,omitempty"`
	CacheMisses    int `json:"cache_misses,omitempty"`
	CacheCollapsed int `json:"cache_collapsed,omitempty"`
	CacheBypass    int `json:"cache_bypass,omitempty"`
}

// HitRate is the fraction of cache-considered requests that avoided a
// computation (hit or collapsed); 0 when the cache saw nothing.
func (r *Report) HitRate() float64 {
	considered := r.CacheHits + r.CacheMisses + r.CacheCollapsed
	if considered == 0 {
		return 0
	}
	return float64(r.CacheHits+r.CacheCollapsed) / float64(considered)
}

// Availability is the fraction of requests answered 200, counting
// transport errors in the denominator.
func (r *Report) Availability() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Count(200)) / float64(r.Requests)
}

// Count returns the number of responses with the given status code.
func (r *Report) Count(code int) int { return r.Codes[code] }

// String renders the report for logs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d elapsed=%dms", r.Requests, r.ElapsedMS)
	codes := make([]int, 0, len(r.Codes))
	for c := range r.Codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, " %d=%d", c, r.Codes[c])
	}
	if r.Verified > 0 || r.Mismatch > 0 {
		fmt.Fprintf(&b, " verified=%d mismatch=%d", r.Verified, r.Mismatch)
	}
	if r.Coalesced > 0 {
		fmt.Fprintf(&b, " coalesced=%d", r.Coalesced)
	}
	if r.Degraded > 0 {
		fmt.Fprintf(&b, " degraded=%d", r.Degraded)
	}
	if r.Columnar > 0 {
		fmt.Fprintf(&b, " columnar=%d", r.Columnar)
	}
	if r.Scattered > 0 {
		fmt.Fprintf(&b, " scattered=%d", r.Scattered)
	}
	if r.Retries > 0 || r.HedgeWins > 0 {
		fmt.Fprintf(&b, " retries=%d hedge_wins=%d", r.Retries, r.HedgeWins)
	}
	if r.CacheHits+r.CacheMisses+r.CacheCollapsed+r.CacheBypass > 0 {
		fmt.Fprintf(&b, " cache_hit=%d cache_miss=%d cache_collapsed=%d cache_bypass=%d hit_rate=%.3f",
			r.CacheHits, r.CacheMisses, r.CacheCollapsed, r.CacheBypass, r.HitRate())
	}
	if r.P99MS > 0 {
		fmt.Fprintf(&b, " p50=%.1fms p99=%.1fms", r.P50MS, r.P99MS)
	}
	errs := make([]string, 0, len(r.Errors))
	for e := range r.Errors {
		errs = append(errs, e)
	}
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(&b, " err[%s]=%d", e, r.Errors[e])
	}
	return b.String()
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.OptionsPerRequest <= 0 {
		o.OptionsPerRequest = 8
	}
	if len(o.Mix) == 0 {
		o.Mix = map[string]int{"closed-form": 1}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.ScenarioGrid == [3]int{} {
		o.ScenarioGrid = [3]int{5, 3, 3}
	}
	return o
}

// mixTable flattens weights into a lookup slice for cheap sampling.
func mixTable(mix map[string]int) []string {
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic order for a given seed
	var table []string
	for _, name := range names {
		for i := 0; i < mix[name]; i++ {
			table = append(table, name)
		}
	}
	if len(table) == 0 {
		table = []string{"closed-form"}
	}
	return table
}

// batchPools pre-generates the Zipf mode's contract batches: one pool
// per pricing method in the mix, each batch drawn from a rng seeded only
// by (seed, method, rank) so the hot set is identical across runs and
// across workers.
func batchPools(o Options, table []string) map[string][][]wire.Option {
	pools := make(map[string][][]wire.Option)
	for _, method := range table {
		if method == "greeks" || pools[method] != nil {
			continue
		}
		var methodSalt int64
		for _, c := range method {
			methodSalt = methodSalt*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(o.Seed ^ methodSalt))
		pool := make([][]wire.Option, o.ZipfPool)
		for r := range pool {
			pool[r] = randomOptions(rng, o.OptionsPerRequest, method)
		}
		pools[method] = pool
	}
	return pools
}

// zipfCDF precomputes the cumulative rank distribution with weights
// 1/(r+1)^s. Unlike math/rand's Zipf it accepts any s >= 0 (s = 0 is
// uniform; the interesting skew ladder includes s = 1.0).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// zipfRank draws a rank from the precomputed CDF by inverse transform.
func zipfRank(rng *rand.Rand, cdf []float64) int {
	return sort.SearchFloat64s(cdf, rng.Float64())
}

// Run executes the load and returns the aggregate report.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	switch o.Wire {
	case "", "json", "columnar":
	default:
		return nil, fmt.Errorf("unknown wire format %q (want json or columnar)", o.Wire)
	}
	table := mixTable(o.Mix)
	client := &http.Client{Timeout: o.Timeout}

	var (
		pools map[string][][]wire.Option
		cdf   []float64
	)
	if o.ZipfPool > 0 {
		if o.ZipfS < 0 {
			return nil, fmt.Errorf("zipf skew must be >= 0, got %v", o.ZipfS)
		}
		pools = batchPools(o, table)
		cdf = zipfCDF(o.ZipfPool, o.ZipfS)
	}

	var (
		mu        sync.Mutex
		rep       = &Report{Codes: make(map[int]int), Errors: make(map[string]int)}
		latencies []float64
		next      atomic.Int64
		wg        sync.WaitGroup
		market    = finbench.Market{Rate: 0.02, Volatility: 0.3}
	)
	start := time.Now()
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(w)*104729))
			for {
				i := next.Add(1)
				if i > int64(o.Requests) {
					return
				}
				var code int
				var outcome reqOutcome
				var err error
				t0 := time.Now()
				if o.Scenario {
					code, outcome, err = o.doScenario(client, rng, market)
				} else {
					method := table[rng.Intn(len(table))]
					var batch []wire.Option
					if pools != nil && method != "greeks" {
						batch = pools[method][zipfRank(rng, cdf)]
					}
					code, outcome, err = o.doRequest(client, rng, method, batch, market)
				}
				reqMS := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				rep.Requests++
				latencies = append(latencies, reqMS)
				if err != nil {
					rep.Errors[errKey(err)]++
				} else {
					rep.Codes[code]++
					rep.Verified += outcome.verified
					rep.Mismatch += outcome.mismatch
					rep.Coalesced += outcome.coalesced
					rep.Degraded += outcome.degraded
					rep.Columnar += outcome.columnar
					rep.Scattered += outcome.scattered
					rep.Retries += outcome.retries
					rep.HedgeWins += outcome.hedgeWon
					rep.CacheHits += outcome.cacheHit
					rep.CacheMisses += outcome.cacheMiss
					rep.CacheCollapsed += outcome.cacheCollapsed
					rep.CacheBypass += outcome.cacheBypass
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	rep.ElapsedMS = time.Since(start).Milliseconds()
	rep.P50MS = percentile(latencies, 0.50)
	rep.P99MS = percentile(latencies, 0.99)
	return rep, nil
}

// percentile returns the q-quantile (nearest-rank) of values in ms.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

type reqOutcome struct {
	verified, mismatch, coalesced, degraded int
	columnar, scattered                     int
	retries, hedgeWon                       int
	cacheHit, cacheMiss, cacheCollapsed     int
	cacheBypass                             int
}

// noteCacheHeader reads the X-Finserve-Cache outcome header a
// cache-enabled server or router attaches; absent means the cache tier
// is off and nothing is counted.
func (out *reqOutcome) noteCacheHeader(resp *http.Response) {
	switch resp.Header.Get(pricecache.Header) {
	case "hit":
		out.cacheHit = 1
	case "miss":
		out.cacheMiss = 1
	case "collapsed":
		out.cacheCollapsed = 1
	case "bypass":
		out.cacheBypass = 1
	}
}

// noteRouteHeaders reads the per-request resilience headers a shard
// router attaches; against a bare replica they are absent and the
// outcome stays zero. X-Finserve-Retries counts only sequential
// re-attempts (hedge legs are in X-Finserve-Attempts but are not
// retries).
func (out *reqOutcome) noteRouteHeaders(resp *http.Response) {
	if v := resp.Header.Get("X-Finserve-Retries"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			out.retries = n
		}
	}
	if resp.Header.Get("X-Finserve-Hedge") == "won" {
		out.hedgeWon = 1
	}
}

// errKey buckets transport errors coarsely so the report stays readable.
func errKey(err error) string {
	s := err.Error()
	switch {
	case strings.Contains(s, "connection refused"):
		return "connection-refused"
	case strings.Contains(s, "Client.Timeout"):
		return "client-timeout"
	case strings.Contains(s, "EOF"):
		return "eof"
	default:
		return "other"
	}
}

// doRequest sends one pricing request: batch overrides the contract set
// (Zipf pool mode); nil draws fresh random contracts.
func (o Options) doRequest(client *http.Client, rng *rand.Rand, method string, batch []wire.Option, mkt finbench.Market) (int, reqOutcome, error) {
	var out reqOutcome
	if method == "greeks" {
		return o.doGreeks(client, rng, mkt)
	}
	if batch == nil {
		batch = randomOptions(rng, o.OptionsPerRequest, method)
	}
	if o.Wire == "columnar" && method == "closed-form" {
		// Columnar is closed-form-only; the rest of the mix stays JSON.
		return o.doColumnar(client, batch, mkt)
	}
	req := wire.PriceRequest{
		Method:     method,
		Options:    batch,
		Config:     o.Config,
		DeadlineMS: o.DeadlineMS,
	}
	if method == "closed-form" {
		req.Method = "" // exercise the default path too
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return 0, out, err
	}
	resp, err := client.Post(o.BaseURL+"/price", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	out.noteRouteHeaders(resp)
	out.noteCacheHeader(resp)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, out, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, nil
	}
	var pr wire.PriceResponse
	if err := json.Unmarshal(buf.Bytes(), &pr); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding 200 body: %w", err)
	}
	if pr.Coalesced {
		out.coalesced = 1
	}
	if pr.Degraded {
		out.degraded = 1
	}
	if o.Verify {
		v, m := verifyResponse(&req, &pr, mkt)
		out.verified, out.mismatch = v, m
	}
	return resp.StatusCode, out, nil
}

// doColumnar sends the batch as a binary columnar frame. With Verify set
// it recomputes every price from the library AND replays the same
// contracts as a JSON AOS request, requiring the two 200s bit-identical:
// the framing must be invisible in the numbers.
func (o Options) doColumnar(client *http.Client, batch []wire.Option, mkt finbench.Market) (int, reqOutcome, error) {
	var out reqOutcome
	cols := wire.Columns{
		Spots:    make([]float64, len(batch)),
		Strikes:  make([]float64, len(batch)),
		Expiries: make([]float64, len(batch)),
	}
	types := make([]byte, len(batch))
	for i := range batch {
		cols.Spots[i] = batch[i].Spot
		cols.Strikes[i] = batch[i].Strike
		cols.Expiries[i] = batch[i].Expiry
		types[i] = 'c'
		if batch[i].Type == "put" {
			types[i] = 'p'
		}
	}
	cols.Types = string(types)
	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &cols, DeadlineMS: o.DeadlineMS})
	resp, err := client.Post(o.BaseURL+"/price", wire.ColumnarContentType, bytes.NewReader(frame))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	out.noteRouteHeaders(resp)
	out.noteCacheHeader(resp)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, out, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, nil
	}
	pr, err := wire.DecodeColumnarResponse(buf.Bytes())
	if err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding columnar 200 body: %w", err)
	}
	out.columnar = 1
	if pr.Coalesced {
		out.coalesced = 1
	}
	if pr.Degraded {
		out.degraded = 1
	}
	if !o.Verify {
		return resp.StatusCode, out, nil
	}
	jreq := wire.PriceRequest{Options: batch, DeadlineMS: o.DeadlineMS}
	v, m := verifyResponse(&jreq, pr, mkt)
	out.verified, out.mismatch = v, m

	// Cross-framing replay: same contracts over JSON.
	body, err := json.Marshal(&jreq)
	if err != nil {
		return resp.StatusCode, out, err
	}
	jresp, err := client.Post(o.BaseURL+"/price", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp.StatusCode, out, err
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		// Shed/overload on the replay is not a framing mismatch.
		return resp.StatusCode, out, nil
	}
	var jr wire.PriceResponse
	if err := json.NewDecoder(jresp.Body).Decode(&jr); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding cross-check body: %w", err)
	}
	if jr.Degraded != pr.Degraded || jr.Method != pr.Method {
		// A degrade flip between the two requests makes the comparison
		// meaningless; the library check above already judged each 200.
		return resp.StatusCode, out, nil
	}
	if len(jr.Results) != len(pr.Results) {
		out.mismatch += len(pr.Results)
		return resp.StatusCode, out, nil
	}
	for i := range pr.Results {
		// finlint:ignore floateq bit-reproducibility is the protocol guarantee under test
		if jr.Results[i].Price == pr.Results[i].Price {
			out.verified++
		} else {
			out.mismatch++
		}
	}
	return resp.StatusCode, out, nil
}

func (o Options) doGreeks(client *http.Client, rng *rand.Rand, mkt finbench.Market) (int, reqOutcome, error) {
	var out reqOutcome
	req := wire.GreeksRequest{Options: randomOptions(rng, o.OptionsPerRequest, "greeks")}
	body, err := json.Marshal(&req)
	if err != nil {
		return 0, out, err
	}
	resp, err := client.Post(o.BaseURL+"/greeks", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	out.noteRouteHeaders(resp)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, out, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, nil
	}
	if !o.Verify {
		return resp.StatusCode, out, nil
	}
	var gr wire.GreeksResponse
	if err := json.Unmarshal(buf.Bytes(), &gr); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding greeks body: %w", err)
	}
	for i := range req.Options {
		wo := &req.Options[i]
		g, err := finbench.ComputeGreeks(wo.ToOption(), mkt)
		if err != nil {
			out.mismatch++
			continue
		}
		want := g.DeltaCall
		if wo.Type == "put" {
			want = g.DeltaPut
		}
		// finlint:ignore floateq bit-reproducibility is the protocol guarantee under test
		if i < len(gr.Results) && gr.Results[i].Delta == want && gr.Results[i].Gamma == g.Gamma {
			out.verified++
		} else {
			out.mismatch++
		}
	}
	return resp.StatusCode, out, nil
}

// randomOptions draws plausible contracts. Lattice methods get a share of
// American puts; European-only methods stay European.
func randomOptions(rng *rand.Rand, n int, method string) []wire.Option {
	opts := make([]wire.Option, n)
	for i := range opts {
		o := &opts[i]
		o.Spot = 50 + 100*rng.Float64()
		o.Strike = 50 + 100*rng.Float64()
		o.Expiry = 0.1 + 3*rng.Float64()
		if rng.Intn(2) == 1 {
			o.Type = "put"
		}
		switch method {
		case "binomial-tree", "crank-nicolson", "trinomial-tree":
			if o.Type == "put" && rng.Intn(2) == 1 {
				o.Style = "american"
			}
		}
	}
	return opts
}

// verifyResponse recomputes every result from the *effective*
// method/config in the response. Closed-form goes through a 1-option
// LevelAdvanced batch — composition independence makes that equal to
// whatever mega-batch the server coalesced the request into; everything
// else goes through finbench.Price.
func verifyResponse(req *wire.PriceRequest, resp *wire.PriceResponse, mkt finbench.Market) (verified, mismatch int) {
	method, err := wire.ParseMethod(resp.Method)
	if err != nil || len(resp.Results) != len(req.Options) {
		return 0, len(req.Options)
	}
	cfg := resp.Config.ToConfig()
	for i := range req.Options {
		o := &req.Options[i]
		var want, wantStdErr float64
		if method == finbench.ClosedForm {
			b := finbench.NewBatch(1)
			b.Spots[0], b.Strikes[0], b.Expiries[0] = o.Spot, o.Strike, o.Expiry
			if err := finbench.PriceBatch(b, mkt, finbench.LevelAdvanced); err != nil {
				mismatch++
				continue
			}
			if o.Type == "put" {
				want = b.Puts[0]
			} else {
				want = b.Calls[0]
			}
		} else {
			res, err := finbench.Price(o.ToOption(), mkt, method, &cfg)
			if err != nil {
				mismatch++
				continue
			}
			want, wantStdErr = res.Price, res.StdErr
		}
		// finlint:ignore floateq bit-reproducibility is the protocol guarantee under test
		if resp.Results[i].Price == want && resp.Results[i].StdErr == wantStdErr {
			verified++
		} else {
			mismatch++
		}
	}
	return verified, mismatch
}

// SchedFrozen reads /statsz twice, gap apart, and reports whether the
// parallel pool's scheduler counters advanced in between. After a burst of
// sub-deadline requests has been cancelled, a frozen scheduler proves the
// cancelled work actually stopped consuming the pool.
func SchedFrozen(baseURL string, gap time.Duration) (bool, string, error) {
	first, err := fetchSched(baseURL)
	if err != nil {
		return false, "", err
	}
	time.Sleep(gap)
	second, err := fetchSched(baseURL)
	if err != nil {
		return false, "", err
	}
	var moved []string
	for k, v2 := range second {
		if v1, ok := first[k]; ok && v2 != v1 {
			moved = append(moved, k+":"+strconv.FormatUint(v2-v1, 10))
		}
	}
	sort.Strings(moved)
	return len(moved) == 0, strings.Join(moved, ","), nil
}

func fetchSched(baseURL string) (map[string]uint64, error) {
	resp, err := http.Get(baseURL + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap serve.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap.Sched, nil
}

// RouterBreakers reads a shard router's /statsz and summarizes its
// breakers: total opens across replicas and how many are not currently
// closed. Chaos assertions are built on the deltas (breakers opened
// during the kill, all closed again after recovery).
func RouterBreakers(baseURL string) (opens uint64, notClosed int, err error) {
	resp, err := http.Get(baseURL + "/statsz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap shard.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, err
	}
	if len(snap.Replicas) == 0 {
		return 0, 0, fmt.Errorf("%s/statsz has no replicas; not a shard router", baseURL)
	}
	for _, rs := range snap.Replicas {
		opens += rs.Breaker.Opens
		if rs.Breaker.State != "closed" {
			notClosed++
		}
	}
	return opens, notClosed, nil
}

// ParseMix parses "closed-form=8,monte-carlo=1" into a weight map.
func ParseMix(s string) (map[string]int, error) {
	mix := make(map[string]int)
	if s == "" {
		return mix, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, weight, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			w, err = strconv.Atoi(weight)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
		}
		switch name {
		case "closed-form", "binomial-tree", "crank-nicolson", "monte-carlo", "trinomial-tree", "greeks":
		default:
			return nil, fmt.Errorf("unknown mix method %q", name)
		}
		mix[name] = w
	}
	return mix, nil
}

// ParseCounts parses "200:40,503:1" into minimum-count requirements.
func ParseCounts(s string) (map[int]int, error) {
	out := make(map[int]int)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		code, count, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("bad count spec %q", part)
		}
		c, err1 := strconv.Atoi(code)
		n, err2 := strconv.Atoi(count)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad count spec %q", part)
		}
		out[c] = n
	}
	return out, nil
}

// ParseCodes parses "200,429,503" into an allow-set.
func ParseCodes(s string) (map[int]bool, error) {
	out := make(map[int]bool)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad code %q", part)
		}
		out[c] = true
	}
	return out, nil
}
