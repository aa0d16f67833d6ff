package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"finbench/internal/serve/stream"
)

// stream_fanout: two SSE subscribers, one per connection, each subscribe
// to the whole universe of one replica's hub with the default dirty
// thresholds. An operating phase at 20 ms ticks measures staleness; a
// saturation phase, whose 2 ms tick interval is far below one repricing
// pass (skip-to-latest engaged), measures delivered entries per second.
// Two milliseconds still fits a whole-universe reprice into the pass
// budget (which defaults to the interval); at 1 ms the budget-driven
// reprice cap engages and disengages from pass to pass, and saturated
// staleness flips between two levels from run to run. The
// dirty scan, the reprice, per-subscriber encoding and the fan-out
// writes do the work; wire decoding, the coalescer, the router and the
// cache are idle.
//
// The saturation phase gets the larger share of the run and alone
// carries the bounded metrics. At 20 ms ticks the dirty share of the
// universe follows the seed's market walk (one volatility moves every
// contract), so the operating phase's heap and work differ from seed to
// seed far more than the saturated phase's do.
const (
	streamUniverse    = 4096
	streamSubs        = 2
	streamOpInterval  = 20 * time.Millisecond
	streamSatInterval = 2 * time.Millisecond
	streamOpFrac      = 0.4
	streamSatWarm     = 500 * time.Millisecond
)

func streamConfig(seed int64, interval time.Duration) stackConfig {
	return stackConfig{replicas: 1, stream: &stream.Config{
		Universe: streamUniverse, Seed: uint64(seed), Interval: interval,
	}}
}

// subscribeAll opens the subscribers and waits for each one's first
// snapshot, which is part of set-up.
func subscribeAll(s *stack, seed int64) error {
	for i := 0; i < streamSubs; i++ {
		sub, err := subscribe(s.base, seed, uint64(i))
		if err != nil {
			return err
		}
		s.subs = append(s.subs, sub)
	}
	timeout := time.After(10 * time.Second)
	for _, sub := range s.subs {
		select {
		case <-sub.first:
		case <-sub.done:
			return errors.New("subscriber ended before its first snapshot")
		case <-timeout:
			return errors.New("no first snapshot within 10s")
		}
	}
	return nil
}

// streamWindow is what the subscribers received in one timed window.
type streamWindow struct {
	ts        []time.Duration // receipt, from the window's start
	staleness []float64       // ms, tick to receipt
	perSec    []float64       // entries received in each whole second
	events    int
	dur       time.Duration
}

// summary is the window's staleness, windowed by receipt time.
func (w *streamWindow) summary() summary { return windowed(w.ts, w.staleness) }

// measureStream lets the stack's feed run for dur and collects the
// window from every subscriber. Subscriber errors and goodbyes in the
// window count as failures.
func measureStream(s *stack, dur time.Duration, t *tally) streamWindow {
	errs0, byes0 := subFailures(s)
	from := time.Now().UnixNano()
	time.Sleep(dur)
	to := time.Now().UnixNano()
	w := streamWindow{dur: time.Duration(to - from)}
	w.perSec = make([]float64, int(w.dur/time.Second))
	for _, sub := range s.subs {
		for _, e := range sub.window(from, to) {
			w.ts = append(w.ts, time.Duration(e.recv-from))
			w.staleness = append(w.staleness, float64(e.recv-e.tick)/1e6)
			if k := int((e.recv - from) / int64(time.Second)); k < len(w.perSec) {
				w.perSec[k] += float64(e.entries)
			}
			w.events++
		}
	}
	errs1, byes1 := subFailures(s)
	t.attempted += w.events
	for i := errs0 + byes0; i < errs1+byes1; i++ {
		t.fail(errors.New("stream subscriber error or goodbye"))
	}
	return w
}

func subFailures(s *stack) (errs, byes int64) {
	for _, sub := range s.subs {
		errs += sub.errs.Load()
		byes += sub.goodbyes.Load()
	}
	return errs, byes
}

// verifyStream reprices a seeded sample of every subscriber's sampled
// entries cold.
func verifyStream(s *stack, seed int64, t *tally) {
	for i, sub := range s.subs {
		sub.verifySamples(t, seededRand(seed, 0x7e51<<4|uint64(i)))
	}
}

func runStreamFanout(r *run) error {
	var rec *recorder
	if r.trace {
		rec = newRecorder(time.Now(), 1<<10)
	}
	// The subscribers' buffers are the driver's memory in the windows:
	// one is measured before any stack runs and streamSubs of them are
	// taken off heap_peak_mb, with the heap sampler's buffer.
	var one *subscriber
	driver := streamSubs * driverBytes(func() { one = newSubscriber(r.seed, 0) })
	runtime.KeepAlive(one)
	st, times, err := buildTimed(setupBuilds, func() (*stack, error) {
		return startStack(streamConfig(r.seed, streamOpInterval), rec)
	}, func(s *stack) error { return subscribeAll(s, r.seed) })
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	r.rep.SetupS = times
	time.Sleep(warmup)
	runtime.GC()

	total := time.Duration(r.seconds) * time.Second
	if r.trace {
		return streamTraced(r, st, rec, total)
	}
	op := measureStream(st, time.Duration(float64(total)*streamOpFrac), &r.t)
	verifyStream(st, r.seed, &r.t)
	st.close()
	st = nil
	runtime.GC()
	speed0 := hostProbe(runtime.GOMAXPROCS(0), probeTime)
	var heap *heapSampler
	driver += driverBytes(func() { heap = newHeapSampler(total) })
	r.note("driver_heap_mb", float64(driver)/(1<<20))

	sat, err := startStack(streamConfig(r.seed, streamSatInterval), nil)
	if err != nil {
		return err
	}
	st = sat
	if err := subscribeAll(sat, r.seed); err != nil {
		return fmt.Errorf("saturation set-up: %w", err)
	}
	time.Sleep(streamSatWarm)
	heap.resume(driver)
	cpu0 := processCPU()
	sw := measureStream(sat, total-time.Duration(float64(total)*streamOpFrac), &r.t)
	cpu := processCPU() - cpu0
	peak := heap.stop()
	r.note("heap_collections", heap.collections)
	verifyStream(sat, r.seed, &r.t)
	sat.close()
	st = nil
	runtime.GC()
	speed1 := hostProbe(runtime.GOMAXPROCS(0), probeTime)
	speed := (speed0 + speed1) / 2

	opS, satS := op.summary(), sw.summary()
	perSec := median(sw.perSec)
	var entries float64
	for _, n := range sw.perSec {
		entries += n
	}
	perCPU := ratio(entries, cpu.Seconds()*float64(len(sw.perSec))/sw.dur.Seconds())
	scaled := perCPU * probeRef / speed
	r.note("staleness", opS)
	r.note("saturated_staleness", satS)
	r.note("saturated_entries_per_second", sw.perSec)
	r.set("setup_s", median(times), "s")
	r.set("throughput_per_cpu_s", scaled, "1/cpu-s")
	r.note("probe_per_cpu_second", []float64{speed0, speed1})
	r.set("heap_peak_mb", peak, "MB")

	r.name(named{Name: "setup_s", Value: median(times), Unit: "s", Samples: len(times)})
	r.name(named{Name: "stream_staleness_p50_ms", Value: opS.P50, Unit: "ms", Samples: opS.N, Percentile: 50})
	r.name(named{Name: "stream_staleness_p99_ms", Value: opS.Tail, Unit: "ms", Samples: opS.N, Percentile: float64(opS.TailPM) / 10})
	r.name(named{Name: "saturated_staleness_p50_ms", Value: satS.P50, Unit: "ms", Samples: satS.N, Percentile: 50})
	r.name(named{Name: "saturated_staleness_p99_ms", Value: satS.Tail, Unit: "ms", Samples: satS.N, Percentile: float64(satS.TailPM) / 10})
	r.name(named{Name: "stream_entries_per_s", Value: perSec, Unit: "entries/s", Samples: sw.events})
	r.name(named{Name: "stream_entries_per_cpu_s", Value: perCPU, Unit: "1/cpu-s", Samples: sw.events})
	r.name(named{Name: "throughput_per_cpu_s", Value: scaled, Unit: "1/cpu-s", Samples: sw.events})
	r.name(named{Name: "fail_ratio", Value: ratio(float64(r.t.failed), float64(r.t.attempted)), Unit: "ratio", Samples: r.t.attempted})
	r.name(named{Name: "heap_peak_mb", Value: peak, Unit: "MB"})
	return nil
}

// streamTraced runs the operating phase untraced and then again while
// the counters are diffed, and replays the hub manually.
func streamTraced(r *run, st *stack, rec *recorder, total time.Duration) error {
	r.initLayers()
	half := total / 2
	w0 := measureStream(st, half, &r.t)
	base := w0.summary()
	before, err := st.statsz()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	rec.on.Store(true)
	w := measureStream(st, half, &r.t)
	rec.on.Store(false)
	rt1 := readRuntime()
	after, err := st.statsz()
	if err != nil {
		return err
	}
	verifyStream(st, r.seed, &r.t)
	traced := w.summary()
	r.layer("trace.overhead_p50_ms", traced.P50-base.P50)
	r.layer("trace.overhead_p99_ms", traced.Tail-base.Tail)
	r.note("untraced_staleness_ms", base)
	r.note("traced_staleness_ms", traced)
	r.layer("driver.sent", float64(w.events))
	r.runtimeLayers(rt0, rt1, w.events)
	r.serveLayers(before, after, w.events)
	r.replayHub(r.seed)
	return r.writeTrace(rec)
}
