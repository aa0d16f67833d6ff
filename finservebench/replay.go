package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"finbench"
	"finbench/internal/scenario"
	"finbench/internal/serve/coalesce"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/stream/ticker"
	"finbench/internal/serve/wire"
)

// The replay: the traced phase's recorded inputs, timed through each
// layer's public functions from this file, after the timed window. Each
// per-item figure is the median over replayPasses passes of total time
// over total items.

const (
	replayPasses   = 3
	replayMaxReqs  = 400 // per class
	replayMaxScens = 12
	replaySteps    = 40 // hub passes per replayed configuration
	// coalesceWindow and coalesceMaxBatch are serve.Config's defaults.
	coalesceWindow   = 250 * time.Microsecond
	coalesceMaxBatch = 16384
	coalesceProfile  = 64
)

// recorded is one answered request of the traced phase.
type recorded struct {
	in  *input
	out *outcome
}

// answered collects up to max correct answers of a class, connection by
// connection in send order.
func answered(p *plan, outs [][]outcome, class, max int) []recorded {
	var rs []recorded
	for u := range outs {
		for k := range outs[u] {
			o := &outs[u][k]
			in := &p.inputs[p.users[u][k].in]
			if !o.failed() && !o.unsent && in.class == class && len(rs) < max {
				rs = append(rs, recorded{in: in, out: o})
			}
		}
	}
	return rs
}

// perItem times fn over replayPasses passes and returns the median
// nanoseconds per item; fn returns the items it processed.
func perItem(fn func() (time.Duration, int)) float64 {
	var xs []float64
	for i := 0; i < replayPasses; i++ {
		d, n := fn()
		if n > 0 {
			xs = append(xs, float64(d)/float64(n))
		}
	}
	return median(xs)
}

func batchOf(opts []wire.Option) *finbench.Batch {
	b := finbench.NewBatch(len(opts))
	for i := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = opts[i].Spot, opts[i].Strike, opts[i].Expiry
	}
	return b
}

func (r *run) replay(p *plan, outs [][]outcome, cached bool) {
	price := answered(p, outs, classPrice, replayMaxReqs)
	greeks := answered(p, outs, classGreeks, replayMaxReqs)
	scens := answered(p, outs, classScenario, replayMaxScens)
	r.profileKernel()
	if len(price) > 0 {
		kernel := r.replayPrice(price, cached)
		r.replayCoalesce(p, outs, kernel)
	}
	if len(greeks) > 0 {
		r.replayGreeks(greeks)
	}
	if len(scens) > 0 {
		r.replayScenario(scens)
	}
}

// profileKernel records the Black-Scholes op and byte counts from
// fixed-width ProfileBatch calls on a fixed seeded batch: at width 4
// (the SNB-EP model) they do not depend on the worker split.
func (r *run) profileKernel() {
	const n = 1024
	b := batchOf(randomOptions(seededRand(1, 0xb5), n))
	mix, err := finbench.ProfileBatch(b, market, finbench.LevelAdvanced, 4)
	if err != nil {
		r.t.fail(err)
		return
	}
	r.layer("blackscholes.ops_per_option", float64(mix.Total())/n)
	r.layer("blackscholes.bytes_per_option", float64(mix.BytesRead+mix.BytesWritten)/n)
}

// replayPrice times decode, kernel, encode and digest over the recorded
// /price requests and returns the kernel's ns per option.
func (r *run) replayPrice(rs []recorded, cached bool) float64 {
	var reqBytes, respBytes, opts float64
	batches := make([]*finbench.Batch, len(rs))
	resps := make([]*wire.PriceResponse, len(rs))
	contracts := make([][]pricecache.Contract, len(rs))
	for i, rc := range rs {
		ropts := rc.in.options()
		reqBytes += float64(len(rc.in.body))
		respBytes += float64(rc.out.size)
		opts += float64(len(ropts))
		batches[i] = batchOf(ropts)
		if err := finbench.PriceBatch(batches[i], market, finbench.LevelAdvanced); err != nil {
			r.t.fail(err)
			return 0
		}
		resp := &wire.PriceResponse{Method: "closed-form", Engine: "batch-advanced", BatchOptions: len(ropts)}
		for k, o := range ropts {
			v := batches[i].Calls[k]
			if o.Type == "put" {
				v = batches[i].Puts[k]
			}
			resp.Results = append(resp.Results, wire.Result{Price: v})
		}
		resps[i] = resp
		for _, o := range ropts {
			contracts[i] = append(contracts[i], pricecache.Contract{Type: o.Type, Spot: o.Spot, Strike: o.Strike, Expiry: o.Expiry})
		}
	}
	r.layer("wire.request_bytes_per_option", reqBytes/opts)
	r.layer("wire.response_bytes_per_option", respBytes/opts)

	r.layer("wire.decode_ns_per_option", perItem(func() (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, rc := range rs {
			t0 := time.Now()
			req, _, err := wire.DecodeRequest(rc.in.body)
			d += time.Since(t0)
			if err != nil {
				r.t.fail(err)
				continue
			}
			n += req.NumOptions()
			wire.PutRequest(req)
		}
		return d, n
	}))
	kernel := perItem(func() (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, b := range batches {
			t0 := time.Now()
			err := finbench.PriceBatchCtx(context.Background(), b, market, finbench.LevelAdvanced)
			d += time.Since(t0)
			if err != nil {
				r.t.fail(err)
			}
			n += b.Len()
		}
		return d, n
	})
	r.layer("blackscholes.advanced_ns_per_option", kernel)
	var buf []byte
	r.layer("wire.encode_ns_per_option", perItem(func() (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, resp := range resps {
			t0 := time.Now()
			buf, _ = wire.AppendPriceResponse(buf[:0], resp) // finite prices always encode
			d += time.Since(t0)
			n += len(resp.Results)
		}
		return d, n
	}))
	if cached {
		r.layer("pricecache.digest_ns_per_option", perItem(func() (time.Duration, int) {
			var d time.Duration
			n := 0
			for _, cs := range contracts {
				t0 := time.Now()
				_ = pricecache.Digest("closed-form", 0, 0, pricecache.Params{}, cs)
				d += time.Since(t0)
				n += len(cs)
			}
			return d, n
		}))
	}
	return kernel
}

// replayCoalesce submits the /price requests of the traced phase's first
// second to a coalescer with finserve's defaults, each user on its own
// goroutine at its recorded send offsets, and reports the median wait:
// the time inside Price less the kernel time of the batch it rode in.
func (r *run) replayCoalesce(p *plan, outs [][]outcome, kernelNS float64) {
	type arrival struct {
		sent time.Duration
		opts []wire.Option
	}
	arrivals := make([][]arrival, len(outs))
	for u := range outs {
		for k := range outs[u] {
			o := &outs[u][k]
			in := &p.inputs[p.users[u][k].in]
			if !o.unsent && o.sent <= time.Second && in.class == classPrice && in.n < coalesceMaxBatch {
				arrivals[u] = append(arrivals[u], arrival{o.sent, in.options()})
			}
		}
	}
	co := coalesce.New(market, coalesceWindow, coalesceMaxBatch, coalesceProfile)
	defer co.Close()
	waits := make([][]float64, len(outs))
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for u := range arrivals {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for _, a := range arrivals[u] {
				time.Sleep(time.Until(start.Add(a.sent)))
				t := coalesce.GetTicket(len(a.opts))
				for i, op := range a.opts {
					t.Spots[i], t.Strikes[i], t.Expiries[i] = op.Spot, op.Strike, op.Expiry
				}
				t0 := time.Now()
				err := co.Price(t)
				d := time.Since(t0)
				if err == nil {
					waits[u] = append(waits[u], (float64(d)-kernelNS*float64(t.BatchN))/1e3)
				}
				coalesce.PutTicket(t)
			}
		}(u)
	}
	wg.Wait()
	var all []float64
	for _, w := range waits {
		all = append(all, w...)
	}
	r.layer("coalesce.wait_p50_us", median(all))
}

func (r *run) replayGreeks(rs []recorded) {
	var opts []finbench.Option
	resps := make([]*wire.GreeksResponse, len(rs))
	for i, rc := range rs {
		resp := &wire.GreeksResponse{}
		ropts := rc.in.options()
		for k := range ropts {
			o := ropts[k].ToOption()
			opts = append(opts, o)
			g, err := finbench.ComputeGreeks(o, market)
			if err != nil {
				r.t.fail(err)
				return
			}
			resp.Results = append(resp.Results, wire.Greeks{Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall})
		}
		resps[i] = resp
	}
	r.layer("finbench.greeks_ns_per_option", greeksNS(opts))
	r.layer("wire.greeks_decode_ns_per_option", perItem(func() (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, rc := range rs {
			t0 := time.Now()
			req, err := wire.DecodeGreeksRequest(rc.in.body)
			d += time.Since(t0)
			if err != nil {
				r.t.fail(err)
				continue
			}
			n += len(req.Options)
			wire.PutGreeksRequest(req)
		}
		return d, n
	}))
	var buf []byte
	r.layer("wire.greeks_encode_ns_per_option", perItem(func() (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, resp := range resps {
			t0 := time.Now()
			buf, _ = wire.AppendGreeksResponse(buf[:0], resp) // finite greeks always encode
			d += time.Since(t0)
			n += len(resp.Results)
		}
		return d, n
	}))
}

// greeksNS times the scalar greeks kernel per option.
func greeksNS(opts []finbench.Option) float64 {
	return perItem(func() (time.Duration, int) {
		t0 := time.Now()
		for _, o := range opts {
			_, _ = finbench.ComputeGreeks(o, market) // inputs were checked when built
		}
		return time.Since(t0), len(opts)
	})
}

// replayScenario times the grid kernel and the scenario engine's grid
// cells, generator cells and finalize on the recorded requests.
func (r *run) replayScenario(rs []recorded) {
	ctx := context.Background()
	var gridNS, genNS, kernNS, fin []float64
	for _, rc := range rs {
		req := rc.in.scen
		grid, gens := req.NumGridCells(), req.NumGenCells()
		t0 := time.Now()
		base, gpnl, err := scenario.EvaluateCells(ctx, req, market, 0, grid)
		gridNS = append(gridNS, float64(time.Since(t0))/float64(grid))
		if err != nil {
			r.t.fail(err)
			return
		}
		t0 = time.Now()
		_, mpnl, err := scenario.EvaluateCells(ctx, req, market, grid, gens)
		genNS = append(genNS, float64(time.Since(t0))/float64(gens))
		if err != nil {
			r.t.fail(err)
			return
		}
		pnl := append(gpnl, mpnl...)
		t0 = time.Now()
		_ = scenario.Finalize(req, base, 0, pnl)
		fin = append(fin, float64(time.Since(t0))/1e3)

		b := finbench.NewBatch(len(req.Portfolio))
		for i, pos := range req.Portfolio {
			b.Spots[i], b.Strikes[i], b.Expiries[i] = pos.Spot, pos.Strike, pos.Expiry
		}
		var rows []finbench.GridRow
		for _, ss := range req.Grid.SpotShocks {
			for _, vs := range req.Grid.VolShocks {
				for _, rsh := range req.Grid.RateShifts {
					rows = append(rows, finbench.GridRow{
						Market: finbench.Market{Rate: market.Rate + rsh, Volatility: market.Volatility + vs},
						Scale:  1 + ss,
					})
				}
			}
		}
		t0 = time.Now()
		err = finbench.PriceBatchGridCtx(ctx, b, rows, func(int, []float64, []float64) error { return nil })
		kernNS = append(kernNS, float64(time.Since(t0))/float64(len(rows)))
		if err != nil {
			r.t.fail(err)
			return
		}
	}
	r.layer("scenario.grid_ns_per_cell", median(gridNS))
	r.layer("scenario.gen_ns_per_cell", median(genNS))
	r.layer("scenario.finalize_us", median(fin))
	r.layer("finbench.grid_ns_per_cell", median(kernNS))
}

// replayHub drives a manual hub with the workload's configuration: passes
// without subscribers, scan-only passes (the same tick again, so nothing
// is dirty), and passes with in-process subscribers, whose frames also
// feed the encode measurement.
func (r *run) replayHub(seed int64) {
	r.profileKernel()
	hub := stream.New(stream.Config{Universe: streamUniverse, Seed: uint64(seed), Interval: streamOpInterval}, nil)
	src := hub.Source()
	var st ticker.State
	step := func(fresh bool) float64 {
		if fresh {
			src.Next(&st)
		}
		st.TimeNS = time.Now().UnixNano()
		t0 := time.Now()
		hub.Step(&st)
		return float64(time.Since(t0)) / 1e3
	}
	step(true) // the first pass prices the whole universe
	var bare, scan []float64
	for i := 0; i < replaySteps; i++ {
		bare = append(bare, step(true))
		scan = append(scan, step(false))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var frame []byte
	for i := 0; i < streamSubs; i++ {
		sub, err := hub.Subscribe(nil)
		if err != nil {
			r.t.fail(err)
			close(stop)
			return
		}
		wg.Add(1)
		go func(sub *stream.Sub) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case f := <-sub.C():
					mu.Lock()
					if len(f) > len(frame) {
						frame = f
					}
					mu.Unlock()
				}
			}
		}(sub)
	}
	step(true) // initial snapshots
	var withSubs []float64
	for i := 0; i < replaySteps; i++ {
		withSubs = append(withSubs, step(true))
	}
	close(stop)
	wg.Wait()

	r.layer("stream.pass_us", median(withSubs))
	r.layer("stream.scan_us", median(scan))
	r.layer("stream.fanout_us_per_sub", (median(withSubs)-median(bare))/streamSubs)

	ev, ok := decodeFrame(frame)
	if !ok || len(ev.Contracts) == 0 {
		r.t.fail(errors.New("no stream frame to replay"))
		return
	}
	var enc []byte
	r.layer("stream.encode_ns_per_entry", perItem(func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			enc = stream.MarshalFrame(stream.EventGreeks, &ev)
		}
		return time.Since(t0), 10 * len(ev.Contracts)
	}))
	r.layer("stream.frame_bytes_per_entry", float64(len(enc))/float64(len(ev.Contracts)))

	var opts []finbench.Option
	for _, e := range ev.Contracts {
		o := finbench.Option{Type: finbench.Call, Style: finbench.European, Spot: e.Spot, Strike: e.Strike, Expiry: e.Expiry}
		if e.Type == "put" {
			o.Type = finbench.Put
		}
		opts = append(opts, o)
	}
	r.layer("finbench.greeks_ns_per_option", greeksNS(opts))
	b := finbench.NewBatch(len(opts))
	for i, o := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = o.Spot, o.Strike, o.Expiry
	}
	r.layer("blackscholes.advanced_ns_per_option", perItem(func() (time.Duration, int) {
		t0 := time.Now()
		err := finbench.PriceBatchCtx(context.Background(), b, market, finbench.LevelAdvanced)
		if err != nil {
			r.t.fail(err)
		}
		return time.Since(t0), b.Len()
	}))
}

// decodeFrame parses an SSE frame's data line into its event.
func decodeFrame(frame []byte) (stream.Event, bool) {
	var ev stream.Event
	fr := stream.NewFrameReader(bytes.NewReader(frame))
	f, err := fr.Next()
	if err != nil {
		return ev, false
	}
	return ev, json.Unmarshal(f.Data, &ev) == nil
}
