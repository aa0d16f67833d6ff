// Package serve is the concurrent batch-pricing server over the finbench
// library: an HTTP/JSON front end that coalesces small concurrent
// closed-form requests into SOA mega-batches, propagates client deadlines
// into the pricing kernels (cancelled work stops consuming the parallel
// pool at chunk granularity), sheds load at the door when a bounded
// in-flight work budget is exhausted, and optionally degrades to cheaper
// effective parameters under sustained overload. Every 200 response is
// bit-reproducible from the effective method/config it reports.
//
// Endpoints: POST /price, POST /greeks, POST /scenario, GET /stream
// (SSE, when a streaming hub is configured), GET /statsz, GET /healthz.
// Status codes: 400 malformed, 404/405 routing, 408 deadline exceeded,
// 429 rate-limited, 503 shed or draining (with Retry-After).
package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"finbench"
	"finbench/internal/serve/coalesce"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/wire"
)

// Config tunes the server. Zero values select the defaults.
type Config struct {
	// Market is the flat market every request prices against.
	Market finbench.Market

	// MaxUnits bounds the in-flight work units (1 unit ~ one closed-form
	// option); default 4M. AdmitWait is the longest a request waits for
	// admission before being shed with 503; default 2ms.
	MaxUnits  int64
	AdmitWait time.Duration

	// Rate and Burst configure the token-bucket request-rate limiter
	// (requests/second); Rate 0 disables it.
	Rate, Burst float64

	// CoalesceWindow is the longest the first request of a batch waits
	// for company (default 250us); CoalesceMaxBatch flushes early at that
	// many pending options (default 16384). Requests at least
	// CoalesceMaxBatch options large bypass the coalescer.
	CoalesceWindow   time.Duration
	CoalesceMaxBatch int

	// ProfileEvery samples the op mix of every Nth coalesced flush
	// (default 64; negative disables).
	ProfileEvery int

	// MaxOptions bounds options per request (default 262144). MaxPaths
	// caps per-request Monte Carlo paths (default 2^22).
	MaxOptions int
	MaxPaths   int

	// MaxScenarioCells bounds scenario cells (grid points + generator
	// scenarios) per /scenario request; default 16384.
	MaxScenarioCells int

	// MaxDeadline caps client deadlines and bounds requests that supply
	// none; default 30s.
	MaxDeadline time.Duration

	// Degrade enables degrade mode under sustained shedding.
	Degrade bool

	// CacheBytes enables the content-addressed response cache with that
	// byte budget (0 disables). Only composition-independent engines are
	// cached (closed-form today; Monte Carlo results depend on the batch
	// decomposition and always bypass). CacheTTL expires entries (0 =
	// never). Cacheable responses report elapsed_us 0: timing is
	// transport metadata, excluded from the content address so a hit
	// replays the cold response byte-for-byte.
	CacheBytes int64
	CacheTTL   time.Duration

	// Stream enables the GET /stream SSE feed with the given hub
	// configuration (nil disables — /stream answers 404). The hub's
	// Market defaults to the server's.
	Stream *stream.Config

	// StreamWriteTimeout bounds one SSE frame write: a subscriber that
	// cannot absorb a frame within it is disconnected so it never holds
	// buffers (or the drain) hostage. Default 2s.
	StreamWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
	if c.Market.Volatility == 0 {
		c.Market = finbench.Market{Rate: 0.02, Volatility: 0.3}
	}
	if c.MaxUnits <= 0 {
		c.MaxUnits = 4 << 20
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 2 * time.Millisecond
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 250 * time.Microsecond
	}
	if c.CoalesceMaxBatch <= 0 {
		c.CoalesceMaxBatch = 16384
	}
	if c.ProfileEvery == 0 {
		c.ProfileEvery = 64
	}
	if c.ProfileEvery < 0 {
		c.ProfileEvery = 0
	}
	if c.MaxOptions <= 0 {
		c.MaxOptions = 262144
	}
	if c.MaxPaths <= 0 {
		c.MaxPaths = 1 << 22
	}
	if c.MaxScenarioCells <= 0 {
		c.MaxScenarioCells = 16384
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 2 * time.Second
	}
	return c
}

// Server prices option batches over HTTP.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	stats *stats
	adm   *admission
	deg   *degrader
	co    *coalesce.Coalescer
	rate  *bucket           // nil when rate limiting is disabled
	cache *pricecache.Cache // nil when caching is disabled
	hub   *stream.Hub       // nil when streaming is disabled

	draining atomic.Bool
	// streamActive counts open SSE handlers; Drain waits for it to reach
	// zero (the handlers exit on their own once StartDrain closes the
	// hub's Gone channels).
	streamActive atomic.Int64
}

// New builds a server. Call Close when done (stops the degrade ticker and
// the coalescer timer).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		stats: newStats(),
		adm:   newAdmission(cfg.MaxUnits),
		deg:   newDegrader(cfg.Degrade),
		co:    coalesce.New(cfg.Market, cfg.CoalesceWindow, cfg.CoalesceMaxBatch, cfg.ProfileEvery),
		rate:  newBucket(cfg.Rate, cfg.Burst),
	}
	if cfg.CacheBytes > 0 {
		s.cache = pricecache.New(cfg.CacheBytes, cfg.CacheTTL)
	}
	if cfg.Stream != nil {
		hcfg := *cfg.Stream
		// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		if hcfg.Market.Volatility == 0 {
			hcfg.Market = cfg.Market
		}
		s.hub = stream.New(hcfg, nil)
		s.hub.Start()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/price", s.handlePrice)
	mux.HandleFunc("/greeks", s.handleGreeks)
	mux.HandleFunc("/scenario", s.handleScenario)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (a 404-counting wrapper around the
// mux).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/price", "/greeks", "/scenario", "/stream", "/statsz", "/healthz":
		s.mux.ServeHTTP(w, r)
	default:
		s.writeError(w, http.StatusNotFound, "no such endpoint")
	}
}

// StartDrain flips the server into draining mode without waiting: new
// requests are answered with a fast 503 + Retry-After (so a router fails
// them over to a live replica instead of seeing the listener close under
// it) and /healthz reports "draining" for health checkers. Call Drain
// afterwards to wait for in-flight work.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.co.Flush()
	if s.hub != nil {
		// Shut the hub down NOW, not at Close: closing every subscriber's
		// Gone channel is what makes the open SSE handlers send goodbye
		// and return, which is what lets http.Server.Shutdown (which waits
		// for open connections) complete inside the drain window.
		s.hub.Shutdown()
	}
}

// Drain puts the server into draining mode (new work is refused with
// 503), flushes the coalescer, and waits until in-flight work reaches
// zero or ctx expires. Returns nil when fully drained.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.adm.inFlight() == 0 && s.streamActive.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close releases background resources. The server must not be used after.
func (s *Server) Close() {
	s.deg.close()
	s.co.Close()
	if s.hub != nil {
		s.hub.Close()
	}
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stats.priceRequests.Add(1)
	if !s.door(w, r, http.MethodPost) {
		return
	}
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	// Decoding resolves the method in the same parse.
	var req *wire.PriceRequest
	var method finbench.Method
	var err error
	binaryFraming := r.Header.Get("Content-Type") == wire.ColumnarContentType
	if binaryFraming {
		req, method, err = wire.DecodeColumnarRequest(buf.B)
	} else {
		req, method, err = wire.DecodeRequest(buf.B)
	}
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Columnar != nil {
		s.stats.columnarRequests.Add(1)
	}
	n := req.NumOptions()
	if n > s.cfg.MaxOptions {
		wire.PutRequest(req)
		s.writeError(w, http.StatusBadRequest,
			"too many options: "+strconv.Itoa(n)+" > "+strconv.Itoa(s.cfg.MaxOptions))
		return
	}

	// Resolve the effective numeric parameters: defaults, caps, then the
	// degrade substitution. The response reports exactly these.
	cfg := req.Config.ToConfig()
	if cfg.MCPaths > s.cfg.MaxPaths {
		cfg.MCPaths = s.cfg.MaxPaths
	}
	cfg = cfg.Resolved()
	degraded := false
	if s.deg.active() {
		// Columnar batches are validated all-European.
		allEuro := req.Columnar != nil || allEuropean(req.Options)
		dm, dc := applyDegrade(method, cfg, allEuro)
		degraded = dm != method || dc != cfg
		method, cfg = dm, dc
	}

	// Cacheable fast path: closed-form is composition-independent and
	// never degrade-substituted, so its responses are pure functions of
	// (method, market, effective config, batch) — the cache serves hits
	// and collapses identical concurrent requests before any admission
	// cost. Everything else (Monte Carlo's decomposition-dependent
	// results, the lattice methods, degraded substitutions, and columnar
	// framing — whose response bytes are not the cached JSON) bypasses.
	if s.cache != nil {
		if method == finbench.ClosedForm && !degraded && req.Columnar == nil {
			s.servePriceCached(w, r, start, req, cfg)
			return
		}
		w.Header().Set(pricecache.Header, "bypass")
	}

	// Admission comes before the deadline is acquired, so the deadline
	// window excludes the admission wait.
	units, err := s.admit(unitCost(method, cfg, n))
	if err != nil {
		wire.PutRequest(req)
		s.fail(w, err, "pricing")
		return
	}
	defer s.adm.release(units)
	dctx := s.deadlineCtx(r, req.DeadlineMS)
	defer dctx.Release()

	resp, err := s.price(dctx, req, method, cfg)
	wire.PutRequest(req)
	if err != nil {
		s.fail(w, err, "pricing")
		return
	}
	resp.Degraded = degraded
	if degraded {
		s.stats.degradedResponses.Add(1)
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency(method.String(), elapsed)
	buf = wire.GetBuffer()
	if binaryFraming {
		body, err := wire.AppendColumnarResponse(buf.B[:0], resp)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
		} else {
			s.writeOK(w, headerColumnar, body, true)
		}
		buf.B = body
	} else {
		body, ok := wire.AppendPriceResponse(buf.B[:0], resp)
		s.writeOK(w, headerJSON, body, ok)
		buf.B = body
	}
	wire.PutBuffer(buf)
	wire.PutPriceResponse(resp)
}

// servePriceCached serves a closed-form /price request through the
// content-addressed cache: a stored entry answers immediately (hit), a
// concurrent identical request rides the in-flight leader's computation
// (collapsed), and otherwise this request computes as the leader (miss).
// Hits and collapsed waiters never touch the admission budget — the
// cache's whole throughput win. The deadline context is established
// before Do so a waiter parked on a slow leader still honors its own
// deadline.
func (s *Server) servePriceCached(w http.ResponseWriter, r *http.Request, start time.Time, req *wire.PriceRequest, cfg finbench.Config) {
	defer wire.PutRequest(req)
	dctx := s.deadlineCtx(r, req.DeadlineMS)
	defer dctx.Release()

	body, outcome, err := s.cache.Do(dctx, s.cacheKey(req, cfg), func(ctx context.Context) ([]byte, bool, error) {
		return s.computeCacheable(ctx, req, cfg)
	})
	if err != nil {
		s.fail(w, err, "pricing")
		return
	}
	w.Header().Set(pricecache.Header, outcome.String())
	s.stats.observeLatency(finbench.ClosedForm.String(), time.Since(start))
	s.writeOK(w, headerJSON, body, true)
}

// computeCacheable is the singleflight leader's computation: admission,
// kernel, and the one-and-only marshal. The returned bytes are what the
// store replays, so a cache hit is byte-identical to the cold 200 by
// construction. ElapsedUS stays zero — timing is transport metadata,
// deliberately excluded from the content address.
func (s *Server) computeCacheable(ctx context.Context, req *wire.PriceRequest, cfg finbench.Config) ([]byte, bool, error) {
	units, err := s.admit(unitCost(finbench.ClosedForm, cfg, len(req.Options)))
	if err != nil {
		return nil, false, err
	}
	defer s.adm.release(units)
	resp, err := s.price(ctx, req, finbench.ClosedForm, cfg)
	if err != nil {
		return nil, false, err
	}
	defer wire.PutPriceResponse(resp)
	// The stored bytes are owned by the cache, so encode into a fresh
	// slice, not a pooled buffer.
	body, ok := wire.AppendPriceResponse(nil, resp)
	if !ok {
		return nil, false, json.NewEncoder(io.Discard).Encode(resp)
	}
	return body, true, nil
}

// cacheKey digests the request against the server's market and the
// resolved effective config, so any effective-config or market change
// re-keys every entry — invalidation by construction.
func (s *Server) cacheKey(req *wire.PriceRequest, cfg finbench.Config) pricecache.Key {
	contracts := make([]pricecache.Contract, len(req.Options))
	for i := range req.Options {
		o := &req.Options[i]
		contracts[i] = pricecache.Contract{
			Type: o.Type, Style: o.Style,
			Spot: o.Spot, Strike: o.Strike, Expiry: o.Expiry,
		}
	}
	return pricecache.Digest(finbench.ClosedForm.String(),
		s.cfg.Market.Rate, s.cfg.Market.Volatility,
		pricecache.Params{
			BinomialSteps: cfg.BinomialSteps,
			GridPoints:    cfg.GridPoints,
			TimeSteps:     cfg.TimeSteps,
			MCPaths:       cfg.MCPaths,
			Seed:          cfg.Seed,
		}, contracts)
}

// price computes a /price response under the effective method and
// config into a pooled response (release it with wire.PutPriceResponse):
// the method/config echo, then the closed-form batch engine or the
// scalar kernels.
func (s *Server) price(ctx context.Context, req *wire.PriceRequest, method finbench.Method, cfg finbench.Config) (*wire.PriceResponse, error) {
	resp := wire.GetPriceResponse()
	resp.Method = method.String()
	resp.Config = wire.FromConfig(cfg)
	var err error
	if method == finbench.ClosedForm {
		err = s.priceClosedForm(ctx, req, resp)
	} else {
		err = s.priceHeavy(ctx, req, method, cfg, resp)
	}
	if err != nil {
		wire.PutPriceResponse(resp)
		return nil, err
	}
	return resp, nil
}

// priceClosedForm prices via the SOA batch engine: small requests go
// through the coalescer, requests that are already a mega-batch on their
// own straight to the kernel. Either way the engine is LevelAdvanced, so
// results are bit-identical regardless of batching (composition
// independence).
func (s *Server) priceClosedForm(ctx context.Context, req *wire.PriceRequest, resp *wire.PriceResponse) error {
	n := req.NumOptions()
	resp.Engine = "batch-advanced"
	var calls, puts []float64
	if n >= s.cfg.CoalesceMaxBatch {
		b := coalesce.GetBatch(n)
		defer coalesce.PutBatch(b)
		fillInputs(b.Spots, b.Strikes, b.Expiries, req)
		if err := finbench.PriceBatchCtx(ctx, b, s.cfg.Market, finbench.LevelAdvanced); err != nil {
			return err
		}
		resp.BatchOptions = n
		calls, puts = b.Calls, b.Puts
	} else {
		t := coalesce.GetTicket(n)
		defer coalesce.PutTicket(t)
		fillInputs(t.Spots, t.Strikes, t.Expiries, req)
		if d, ok := ctx.Deadline(); ok {
			t.Deadline = d
		}
		if err := s.co.Price(t); err != nil {
			return err
		}
		resp.Coalesced = t.Coalesced
		resp.BatchOptions = t.BatchN
		calls, puts = t.Calls, t.Puts
	}
	resp.SizedResults(n)
	for i := 0; i < n; i++ {
		if req.IsPut(i) {
			resp.Results[i].Price = puts[i]
		} else {
			resp.Results[i].Price = calls[i]
		}
	}
	return nil
}

// fillInputs copies the request's contracts into SOA input columns,
// whichever framing carries them.
func fillInputs(spots, strikes, expiries []float64, req *wire.PriceRequest) {
	if c := req.Columnar; c != nil {
		copy(spots, c.Spots)
		copy(strikes, c.Strikes)
		copy(expiries, c.Expiries)
		return
	}
	for i := range req.Options {
		spots[i] = req.Options[i].Spot
		strikes[i] = req.Options[i].Strike
		expiries[i] = req.Options[i].Expiry
	}
}

// priceHeavy prices per option through the cancellable scalar kernels.
// These methods are never coalesced: Monte Carlo results depend on the
// batch decomposition (per-worker RNG streams), and the lattice kernels
// gain nothing from batching across requests.
func (s *Server) priceHeavy(ctx context.Context, req *wire.PriceRequest, method finbench.Method, cfg finbench.Config, resp *wire.PriceResponse) error {
	resp.Engine = "scalar"
	resp.SizedResults(len(req.Options))
	for i := range req.Options {
		res, err := finbench.PriceCtx(ctx, req.Options[i].ToOption(), s.cfg.Market, method, &cfg)
		if err != nil {
			return err
		}
		resp.Results[i].Price = res.Price
		resp.Results[i].StdErr = res.StdErr
	}
	return nil
}

func (s *Server) handleGreeks(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stats.greeksRequests.Add(1)
	if !s.door(w, r, http.MethodPost) {
		return
	}
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	// DecodeGreeksRequest validates options and rejects negative
	// deadline_ms, matching /price.
	req, err := wire.DecodeGreeksRequest(buf.B)
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer wire.PutGreeksRequest(req)
	if len(req.Options) == 0 || len(req.Options) > s.cfg.MaxOptions {
		s.writeError(w, http.StatusBadRequest, "option count out of range")
		return
	}
	units, err := s.admit(int64(len(req.Options)))
	if err != nil {
		s.fail(w, err, "greeks")
		return
	}
	defer s.adm.release(units)
	// The deadline is checked between options so a huge batch cannot
	// blow past an expired deadline (or a disconnected client).
	dctx := s.deadlineCtx(r, req.DeadlineMS)
	defer dctx.Release()

	resp := wire.GetGreeksResponse()
	defer wire.PutGreeksResponse(resp)
	resp.SizedResults(len(req.Options))
	for i := range req.Options {
		if dctx.Expired() {
			s.fail(w, context.DeadlineExceeded, "greeks")
			return
		}
		o := &req.Options[i]
		g, err := finbench.ComputeGreeks(o.ToOption(), s.cfg.Market)
		if err != nil {
			s.fail(w, err, "greeks")
			return
		}
		if o.Type == "put" {
			resp.Results[i].Delta = g.DeltaPut
			resp.Results[i].Theta = g.ThetaPut
			resp.Results[i].Rho = g.RhoPut
		} else {
			resp.Results[i].Delta = g.DeltaCall
			resp.Results[i].Theta = g.ThetaCall
			resp.Results[i].Rho = g.RhoCall
		}
		resp.Results[i].Gamma = g.Gamma
		resp.Results[i].Vega = g.Vega
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency("greeks", elapsed)
	buf = wire.GetBuffer()
	body, ok := wire.AppendGreeksResponse(buf.B[:0], resp)
	s.writeOK(w, headerJSON, body, ok)
	buf.B = body
	wire.PutBuffer(buf)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.statszSnapshot()
	s.writeJSON(w, http.StatusOK, &snap)
}

// handleHealthz reports liveness plus the load signals a router needs to
// score this replica: in-flight work units, admission-queue depth, and the
// draining bit. Draining answers 503 with Retry-After so a router fails
// the request over instead of treating the replica as crashed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:        "ok",
		InFlightUnits: s.adm.inFlight(),
		MaxUnits:      s.adm.max,
		QueueDepth:    int64(s.adm.queued()),
		UptimeS:       time.Since(s.stats.start).Seconds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, &h)
		return
	}
	s.writeJSON(w, http.StatusOK, &h)
}

func allEuropean(opts []wire.Option) bool {
	for i := range opts {
		if opts[i].Style == "american" {
			return false
		}
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	s.stats.countCode(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, &wire.ErrorResponse{Error: msg})
}

// writeShed is a 503 with Retry-After, the standard "come back later".
func (s *Server) writeShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, msg)
}
