package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

// POST /scenario prices a portfolio across a scenario grid (spot shocks x
// vol shocks x rate shifts, plus Monte Carlo scenario generators) and
// reduces the P&L surface to a VaR/ES ladder with Kahan-compensated,
// deterministically ordered reductions. A request may carry a `cells`
// sub-range — that is how the shard router scatters one grid across
// replicas — in which case the response is the P&L segment without the
// ladder. The 200 body is a pure function of (request, market): no
// timing field, so a router merging sub-responses reproduces the
// single-process bytes exactly.

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stats.scenarioRequests.Add(1)
	if !s.door(w, r, http.MethodPost) {
		return
	}
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	var req scenario.Request
	err := json.Unmarshal(buf.B, &req)
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding scenario request: "+err.Error())
		return
	}
	if req.DeadlineMS < 0 {
		s.writeError(w, http.StatusBadRequest, "deadline_ms must be non-negative")
		return
	}
	lim := scenario.Limits{MaxPositions: s.cfg.MaxOptions, MaxCells: s.cfg.MaxScenarioCells}
	if err := req.Validate(s.cfg.Market.Volatility, lim); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Admission cost: one unit per (cell, position) valuation, like one
	// unit per closed-form option on /price.
	rangeStart, cells := req.Range()
	units, err := s.admit(int64(cells) * int64(len(req.Portfolio)))
	if err != nil {
		s.fail(w, err, "scenario")
		return
	}
	defer s.adm.release(units)
	dctx := s.deadlineCtx(r, req.DeadlineMS)
	defer dctx.Release()

	base, pnl, err := scenario.EvaluateCells(dctx, &req, s.cfg.Market, rangeStart, cells)
	if err != nil {
		s.fail(w, err, "scenario")
		return
	}
	s.stats.scenarioCells.Add(uint64(cells))
	s.stats.observeLatency("scenario", time.Since(start))
	// json.Marshal plus the newline is exactly json.Encoder's output.
	body, err := json.Marshal(scenario.Finalize(&req, base, rangeStart, pnl))
	s.writeOK(w, headerJSON, append(body, '\n'), err == nil)
}
