package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"finbench/internal/serve"
)

// The traced run: the operating phase runs once untraced and once with
// the recorder on, on the same stack. Per-layer metrics come from the
// spans and /statsz deltas of the traced half and from a replay of its
// recorded inputs through each layer's public functions (replay.go). A
// layer a workload does not exercise reports 0.

// perLayer lists every per-layer metric with its unit.
var perLayer = []struct{ name, unit string }{
	{"driver.lag_p99_ms", "ms"},
	{"driver.sent", "count"},
	{"serve.price_handler_p50_us", "us"},
	{"serve.price_handler_p99_us", "us"},
	{"serve.greeks_handler_p50_us", "us"},
	{"serve.scenario_handler_p50_us", "us"},
	{"serve.shed_ratio", "ratio"},
	{"http.gap_p50_us", "us"},
	{"wire.decode_ns_per_option", "ns"},
	{"wire.encode_ns_per_option", "ns"},
	{"wire.greeks_decode_ns_per_option", "ns"},
	{"wire.greeks_encode_ns_per_option", "ns"},
	{"wire.request_bytes_per_option", "bytes"},
	{"wire.response_bytes_per_option", "bytes"},
	{"coalesce.wait_p50_us", "us"},
	{"coalesce.solo_flush_ratio", "ratio"},
	{"coalesce.options_per_flush", "count"},
	{"blackscholes.advanced_ns_per_option", "ns"},
	{"blackscholes.ops_per_option", "count"},
	{"blackscholes.bytes_per_option", "bytes"},
	{"finbench.greeks_ns_per_option", "ns"},
	{"finbench.grid_ns_per_cell", "ns"},
	{"parallel.jobs_per_request", "count"},
	{"parallel.steal_ratio", "ratio"},
	{"pricecache.hit_ratio", "ratio"},
	{"pricecache.eviction_ratio", "ratio"},
	{"pricecache.digest_ns_per_option", "ns"},
	{"shard.self_p50_us", "us"},
	{"shard.self_p99_us", "us"},
	{"shard.upstream_p50_us", "us"},
	{"shard.attempts_per_request", "count"},
	{"shard.partitions_per_scenario", "count"},
	{"shard.partition_skew", "ratio"},
	{"shard.scenario_merge_us", "us"},
	{"scenario.grid_ns_per_cell", "ns"},
	{"scenario.gen_ns_per_cell", "ns"},
	{"scenario.finalize_us", "us"},
	{"stream.pass_us", "us"},
	{"stream.scan_us", "us"},
	{"stream.fanout_us_per_sub", "us"},
	{"stream.encode_ns_per_entry", "ns"},
	{"stream.frame_bytes_per_entry", "bytes"},
	{"stream.dirty_ratio", "ratio"},
	{"stream.dropped_tick_ratio", "ratio"},
	{"stream.resync_ratio", "ratio"},
	{"stream.event_drop_ratio", "ratio"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.alloc_bytes_per_request", "bytes"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p99_ms", "ms"},
}

// initLayers sets every per-layer metric to 0 before the run fills in
// the layers it exercises.
func (r *run) initLayers() {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// layer sets a per-layer metric, keeping its declared unit.
func (r *run) layer(name string, v float64) {
	m, ok := r.metrics[name]
	if !ok {
		panic("finservebench: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.metrics[name] = m
}

func (w *reqWorkload) traced(r *run, st *stack, conns []*conn, rec *recorder, total time.Duration) error {
	r.initLayers()
	half := total / 2
	op0 := w.operating(tagOperating, half)
	outs0 := runPhase(conns, st.base, &op0, nil)
	r.t.checkOutcomes(&op0, outs0)
	base := classSummary(&op0, outs0, w.primary)
	runtime.GC()

	before, err := st.statsz()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	rec.on.Store(true)
	op1 := w.operating(tagTraced, half)
	outs1 := runPhase(conns, st.base, &op1, rec)
	rec.on.Store(false)
	rt1 := readRuntime()
	after, err := st.statsz()
	if err != nil {
		return err
	}
	r.t.checkOutcomes(&op1, outs1)
	traced := classSummary(&op1, outs1, w.primary)
	r.layer("trace.overhead_p50_ms", traced.P50-base.P50)
	r.layer("trace.overhead_p99_ms", traced.Tail-base.Tail)
	r.note("untraced_"+classNames[w.primary]+"_ms", base)
	r.note("traced_"+classNames[w.primary]+"_ms", traced)

	var lags []float64
	sent := 0
	for u := range outs1 {
		for k := range outs1[u] {
			if o := &outs1[u][k]; !o.unsent {
				lags = append(lags, float64(o.lag())/1e6)
				sent++
			}
		}
	}
	lagS := summarize(lags)
	r.layer("driver.lag_p99_ms", lagS.Tail)
	r.layer("driver.sent", float64(sent))
	r.name(named{Name: "driver.lag_p99_ms", Value: lagS.Tail, Unit: "ms", Samples: lagS.N, Percentile: float64(lagS.TailPM) / 10})

	r.runtimeLayers(rt0, rt1, sent)
	r.serveLayers(before, after, sent)
	r.spanLayers(rec.snapshot())
	r.replay(&op1, outs1, w.cfg.cacheBytes > 0)
	return r.writeTrace(rec)
}

func (r *run) writeTrace(rec *recorder) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := traceFile(r.outDir, r.workload, r.seed)
	if err := rec.writeFile(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.rep.TraceFile = path
	return nil
}

func (r *run) runtimeLayers(rt0, rt1 runtimeCounters, requests int) {
	r.layer("runtime.gc_cpu_ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	r.layer("runtime.alloc_bytes_per_request", ratio(rt1.allocBytes-rt0.allocBytes, float64(requests)))
}

// serveLayers derives the counter-based metrics from /statsz deltas over
// the traced window, summed over replicas. The parallel pool's counters
// are process-wide, so one replica's copy is read.
func (r *run) serveLayers(before, after statsz, requests int) {
	var reqs, shed, flushes, solo, batched float64
	for i := range after.replicas {
		a, b := &after.replicas[i], &before.replicas[i]
		for _, k := range []string{"price", "greeks", "scenario"} {
			reqs += float64(a.Requests[k] - b.Requests[k])
		}
		shed += float64(a.Shed["admission"] - b.Shed["admission"])
		flushes += float64(a.Coalesce["flushes"] - b.Coalesce["flushes"])
		solo += float64(a.Coalesce["solo_flushes"] - b.Coalesce["solo_flushes"])
		batched += float64(a.Coalesce["batched_options"] - b.Coalesce["batched_options"])
		if a.Stream != nil && b.Stream != nil {
			r.streamCounters(b, a)
		}
	}
	r.layer("serve.shed_ratio", ratio(shed, reqs))
	r.layer("coalesce.solo_flush_ratio", ratio(solo, flushes))
	r.layer("coalesce.options_per_flush", ratio(batched, flushes))
	a, b := after.replicas[0].Sched, before.replicas[0].Sched
	r.layer("parallel.jobs_per_request", ratio(float64(a["pool.jobs"]-b["pool.jobs"]), float64(requests)))
	r.layer("parallel.steal_ratio", ratio(float64(a["pool.steals"]-b["pool.steals"]), float64(a["pool.dispatched"]-b["pool.dispatched"])))
	if after.router != nil && after.router.Cache != nil && before.router.Cache != nil {
		ca, cb := after.router.Cache, before.router.Cache
		hits := float64(ca.Hits - cb.Hits)
		looked := hits + float64(ca.Misses-cb.Misses) + float64(ca.Collapsed-cb.Collapsed)
		r.layer("pricecache.hit_ratio", ratio(hits, looked))
		r.layer("pricecache.eviction_ratio", ratio(float64(ca.Evictions-cb.Evictions), float64(ca.Inserts-cb.Inserts)))
	}
}

// streamCounters derives the hub's ratios from its /statsz block.
func (r *run) streamCounters(b, a *serve.StatszResponse) {
	sa, sb := a.Stream, b.Stream
	passes := float64(sa.Passes - sb.Passes)
	r.layer("stream.dirty_ratio", ratio(float64(sa.Repriced-sb.Repriced), passes*float64(sa.Universe)))
	r.layer("stream.dropped_tick_ratio", ratio(float64(sa.DroppedTicks-sb.DroppedTicks), float64(sa.Ticks-sb.Ticks)))
	sent := float64(sa.EventsSent - sb.EventsSent)
	dropped := float64(sa.EventsDropped - sb.EventsDropped)
	r.layer("stream.resync_ratio", ratio(float64(sa.Resyncs-sb.Resyncs), sent))
	r.layer("stream.event_drop_ratio", ratio(dropped, sent+dropped))
}

func spanUS(s span) float64 { return float64(s.dur()) / 1e3 }

// spanLayers derives the serve, http and shard metrics from the spans.
func (r *run) spanLayers(spans []span) {
	kids := childIndex(spans)
	var price, greeks, scen, gaps, self, upstream []float64
	var routedPrice, attempts, routedScen, parts float64
	var skews, merges []float64
	for _, s := range spans {
		switch {
		case s.Name == "replica/price":
			price = append(price, spanUS(s))
		case s.Name == "replica/greeks":
			greeks = append(greeks, spanUS(s))
		case s.Name == "replica/scenario":
			scen = append(scen, spanUS(s))
		case strings.HasPrefix(s.Name, "upstream/"):
			upstream = append(upstream, spanUS(s))
		case strings.HasPrefix(s.Name, "client/"):
			for _, c := range kids[s.ID] {
				gaps = append(gaps, spanUS(s)-spanUS(c))
			}
		}
		if !strings.HasPrefix(s.Name, "router/") {
			continue
		}
		ch := kids[s.ID]
		self = append(self, float64(selfTime(s, ch))/1e3)
		switch {
		case s.Name == "router/price" && len(ch) > 0:
			routedPrice++
			attempts += float64(len(ch))
		case s.Name == "router/scenario" && len(ch) > 0:
			routedScen++
			parts += float64(len(ch))
			var durs []float64
			var lastEnd int64
			for _, c := range ch {
				durs = append(durs, spanUS(c))
				if c.End > lastEnd {
					lastEnd = c.End
				}
			}
			skews = append(skews, ratio(percentile(durs, 1000), median(durs)))
			merges = append(merges, float64(s.End-lastEnd)/1e3)
		}
	}
	ps := summarize(price)
	r.layer("serve.price_handler_p50_us", ps.P50)
	r.layer("serve.price_handler_p99_us", ps.Tail)
	r.name(named{Name: "serve.price_handler_p99_us", Value: ps.Tail, Unit: "us", Samples: ps.N, Percentile: float64(ps.TailPM) / 10})
	r.layer("serve.greeks_handler_p50_us", median(greeks))
	r.layer("serve.scenario_handler_p50_us", median(scen))
	r.layer("http.gap_p50_us", median(gaps))
	ss := summarize(self)
	r.layer("shard.self_p50_us", ss.P50)
	r.layer("shard.self_p99_us", ss.Tail)
	if ss.N > 0 {
		r.name(named{Name: "shard.self_p99_us", Value: ss.Tail, Unit: "us", Samples: ss.N, Percentile: float64(ss.TailPM) / 10})
	}
	r.layer("shard.upstream_p50_us", median(upstream))
	r.layer("shard.attempts_per_request", ratio(attempts, routedPrice))
	r.layer("shard.partitions_per_scenario", ratio(parts, routedScen))
	r.layer("shard.partition_skew", median(skews))
	r.layer("shard.scenario_merge_us", median(merges))
}
