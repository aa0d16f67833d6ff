package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"finbench"
	"finbench/internal/scenario"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/wire"
)

// Verification. /price and /greeks answers must match the library bit
// for bit, /scenario answers byte for byte, and sampled stream entries
// must match a cold repricing at their echoed inputs. Expected answers
// are computed before each phase and compared as bytes when an answer
// arrives; stream samples are repriced after the window. Either way the
// library's cost stays out of the timings.

// market is the flat market of finserve's defaults (`finserve serve`
// -market-rate 0.02 -market-vol 0.3).
var market = finbench.Market{Rate: 0.02, Volatility: 0.3}

// checkAnswer verifies one 200 body against the library and returns
// the number of values checked or an error naming the first mismatch.
func checkAnswer(in *input, body []byte) (int, error) {
	switch in.class {
	case classPrice:
		return checkPrice(in.options(), body)
	case classGreeks:
		return checkGreeks(in.options(), body)
	default:
		return checkScenario(in.scen, body)
	}
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPrice recomputes a closed-form /price answer as one LevelAdvanced
// batch; composition independence makes that equal to whatever batch
// the server priced the contracts in.
func checkPrice(opts []wire.Option, body []byte) (int, error) {
	var resp wire.PriceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode /price 200: %w", err)
	}
	if resp.Method != "closed-form" || len(resp.Results) != len(opts) {
		return 0, fmt.Errorf("/price 200: method %q with %d results for %d options", resp.Method, len(resp.Results), len(opts))
	}
	b := finbench.NewBatch(len(opts))
	for i := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = opts[i].Spot, opts[i].Strike, opts[i].Expiry
	}
	if err := finbench.PriceBatch(b, market, finbench.LevelAdvanced); err != nil {
		return 0, err
	}
	for i := range opts {
		want := b.Calls[i]
		if opts[i].Type == "put" {
			want = b.Puts[i]
		}
		if !bitsEq(resp.Results[i].Price, want) || !bitsEq(resp.Results[i].StdErr, 0) {
			return i, fmt.Errorf("/price option %d: got %v, library %v", i, resp.Results[i].Price, want)
		}
	}
	return len(opts), nil
}

// checkGreeks recomputes every /greeks row with the scalar kernel.
func checkGreeks(opts []wire.Option, body []byte) (int, error) {
	var resp wire.GreeksResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode /greeks 200: %w", err)
	}
	if len(resp.Results) != len(opts) {
		return 0, fmt.Errorf("/greeks 200: %d results for %d options", len(resp.Results), len(opts))
	}
	for i := range opts {
		o := &opts[i]
		g, err := finbench.ComputeGreeks(o.ToOption(), market)
		if err != nil {
			return i, err
		}
		delta, theta, rho := g.DeltaCall, g.ThetaCall, g.RhoCall
		if o.Type == "put" {
			delta, theta, rho = g.DeltaPut, g.ThetaPut, g.RhoPut
		}
		r := &resp.Results[i]
		if !bitsEq(r.Delta, delta) || !bitsEq(r.Gamma, g.Gamma) || !bitsEq(r.Vega, g.Vega) ||
			!bitsEq(r.Theta, theta) || !bitsEq(r.Rho, rho) {
			return i, fmt.Errorf("/greeks option %d differs from the library", i)
		}
	}
	return len(opts), nil
}

// checkScenario requires the body byte-identical to the library's own
// evaluate and finalize, encoded the way finserve encodes it.
func checkScenario(req *scenario.Request, body []byte) (int, error) {
	base, pnl, err := scenario.EvaluateCells(context.Background(), req, market, 0, req.NumCells())
	if err != nil {
		return 0, err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(scenario.Finalize(req, base, 0, pnl)); err != nil {
		return 0, err
	}
	if !bytes.Equal(body, want.Bytes()) {
		return 0, fmt.Errorf("/scenario 200 differs from the library (%d vs %d bytes)", len(body), want.Len())
	}
	return len(pnl), nil
}

// checkEntry reprices one stream entry cold at its echoed inputs and
// compares every value bit for bit.
func checkEntry(e *stream.Entry) error {
	b := finbench.NewBatch(1)
	b.Spots[0], b.Strikes[0], b.Expiries[0] = e.Spot, e.Strike, e.Expiry
	m := finbench.Market{Rate: e.Rate, Volatility: e.Vol}
	if err := finbench.PriceBatch(b, m, finbench.LevelAdvanced); err != nil {
		return err
	}
	opt := finbench.Option{Type: finbench.Call, Style: finbench.European, Spot: e.Spot, Strike: e.Strike, Expiry: e.Expiry}
	price := b.Calls[0]
	if e.Type == "put" {
		opt.Type = finbench.Put
		price = b.Puts[0]
	}
	g, err := finbench.ComputeGreeks(opt, m)
	if err != nil {
		return err
	}
	delta, theta, rho := g.DeltaCall, g.ThetaCall, g.RhoCall
	if e.Type == "put" {
		delta, theta, rho = g.DeltaPut, g.ThetaPut, g.RhoPut
	}
	if !bitsEq(e.Price, price) || !bitsEq(e.Delta, delta) || !bitsEq(e.Gamma, g.Gamma) ||
		!bitsEq(e.Vega, g.Vega) || !bitsEq(e.Theta, theta) || !bitsEq(e.Rho, rho) {
		return fmt.Errorf("stream entry %d differs from a cold repricing", e.ID)
	}
	return nil
}

// tally accumulates a run's attempted, failed and verified counts.
type tally struct {
	attempted, failed int
	verified          int // answers (or stream entries) checked and equal
	// lateChecked counts answers whose bytes differed from the expected
	// ones and were checked value by value after their phase.
	lateChecked int
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// checkOutcomes counts one phase's requests after the phase. Answers
// that matched the expected bytes on arrival are verified; one whose
// bytes differed is decoded and checked against the library value by
// value now (a later finserve may lay out the JSON differently), and
// fails the request if a value differs.
func (t *tally) checkOutcomes(p *plan, outs [][]outcome) {
	for u := range outs {
		for k := range outs[u] {
			o := &outs[u][k]
			if o.mismatch != nil {
				if _, err := checkAnswer(&p.inputs[p.users[u][k].in], o.mismatch); err != nil {
					o.err = err
				}
				o.mismatch = nil
				t.lateChecked++
			}
			switch {
			case !o.attempted():
				continue
			case o.failed():
				t.fail(o.err)
			default:
				t.verified++
			}
			t.attempted++
		}
	}
}

// expect computes in.want from the library: for /price and /greeks the
// response up to its timing and batching fields, encoded by finserve's
// own encoder, which the server's bytes must start with; for /scenario
// the whole body, encoded as finserve encodes it.
func expect(in input, opts []wire.Option) input {
	switch in.class {
	case classPrice:
		b := batchOf(opts)
		if err := finbench.PriceBatch(b, market, finbench.LevelAdvanced); err != nil {
			panic("finservebench: price generated contracts: " + err.Error())
		}
		resp := &wire.PriceResponse{Method: "closed-form", Engine: "batch-advanced", Config: defaultConfig}
		for i, o := range opts {
			v := b.Calls[i]
			if o.Type == "put" {
				v = b.Puts[i]
			}
			resp.Results = append(resp.Results, wire.Result{Price: v})
		}
		enc, _ := wire.AppendPriceResponse(nil, resp) // generated contracts price finite
		in.want = enc[:bytes.LastIndex(enc, elapsedTag)]
	case classGreeks:
		resp := &wire.GreeksResponse{}
		for i := range opts {
			o := &opts[i]
			g, err := finbench.ComputeGreeks(o.ToOption(), market)
			if err != nil {
				panic("finservebench: greeks of generated contracts: " + err.Error())
			}
			r := wire.Greeks{Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall}
			if o.Type == "put" {
				r.Delta, r.Theta, r.Rho = g.DeltaPut, g.ThetaPut, g.RhoPut
			}
			resp.Results = append(resp.Results, r)
		}
		enc, _ := wire.AppendGreeksResponse(nil, resp) // generated contracts have finite greeks
		in.want = enc[:bytes.LastIndex(enc, elapsedTag)]
	default:
		base, pnl, err := scenario.EvaluateCells(context.Background(), in.scen, market, 0, in.scen.NumCells())
		if err != nil {
			panic("finservebench: evaluate generated scenario: " + err.Error())
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(scenario.Finalize(in.scen, base, 0, pnl)); err != nil {
			panic("finservebench: encode scenario answer: " + err.Error())
		}
		in.want = buf.Bytes()
	}
	return in
}

var elapsedTag = []byte(`,"elapsed_us":`)

// defaultConfig is the numeric configuration finserve reports in a
// /price answer whose request sets none: finbench's defaults, resolved.
var defaultConfig = func() wire.Config {
	var c finbench.Config
	return wire.FromConfig(c.Resolved())
}()

// matches reports whether body is the expected answer.
func (in *input) matches(body []byte) bool {
	if in.class == classScenario {
		return bytes.Equal(body, in.want)
	}
	return bytes.HasPrefix(body, in.want)
}
