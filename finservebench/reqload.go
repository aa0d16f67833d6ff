package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request-driven workloads (price_lone, routed_mix): set-up timed over
// several builds, an untimed warm-up, then rounds of an operating phase
// at a fixed offered rate, open loop, each followed by a saturation
// phase in which both connections send back to back (closed loop) and
// the completed requests per second are counted.

const (
	setupBuilds = 25
	warmup      = time.Second
	// grace is how long past its last due time a phase may run before
	// requests still unsent are abandoned.
	grace = 250 * time.Millisecond
)

// Phase tags keep each phase's seeded draws independent.
const (
	tagWarm uint64 = iota + 1
	tagOperating
	tagTraced
	tagSaturation
)

// rounds is how many times a run alternates between its operating and
// its saturation phase, which share the run equally. Each metric is a median over windows or rounds
// spread across the whole run, so that a slow stretch of a shared host
// in part of the run does not set it.
const rounds = 5

// probeTime is how long the host probe runs before each saturation
// phase. Process CPU time is exact only to a scheduler tick per running
// thread, so shorter probes read noisily: on the sizing host the spread
// of repeated probes was 0.085 of their median at 150 ms and 0.017 at
// 500 ms.
const probeTime = 500 * time.Millisecond

// satMaxRate bounds the saturation phase's job lists: requests/s per
// connection that the lists can sustain before running out.
const satMaxRate = 8000

// End-to-end metrics: the ones every workload reports on its last line,
// each steady enough from run to run on a shared host to carry a bound
// (README.md). The latency figures go into the report line under their
// workload-specific names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/cpu-s"},
	{"heap_peak_mb", "MB"},
}

type reqWorkload struct {
	cfg       stackConfig
	setup     []input // one small request per endpoint the workload uses
	primary   int     // the latency class reported first
	aux       int     // the second latency class
	operating func(tag uint64, dur time.Duration) plan
	// saturation returns the saturation phase's inputs and job lists; the
	// connections cycle through them back to back.
	saturation func(tag uint64) plan
}

func (w *reqWorkload) ready(s *stack) error {
	if s.router != nil {
		if err := s.waitRoutable(); err != nil {
			return err
		}
	}
	for i := range w.setup {
		if err := s.answerOnce(&w.setup[i]); err != nil {
			return err
		}
	}
	return nil
}

// runPhase runs a plan open loop from a moment from now and returns its
// outcomes.
func runPhase(conns []*conn, base string, p *plan, rec *recorder) [][]outcome {
	outs := p.newOutcomes()
	runOpen(conns, base, p, outs, rec)
	return outs
}

// runOpen runs a plan open loop from a moment from now into outs.
func runOpen(conns []*conn, base string, p *plan, outs [][]outcome, rec *recorder) {
	start := time.Now().Add(2 * time.Millisecond)
	runPlan(conns, base, p, outs, start, p.dur+grace, false, rec)
}

// cycled repeats each connection's jobs until it has n.
func cycled(p plan, n int) plan {
	out := plan{inputs: p.inputs, dur: p.dur, users: make([][]job, len(p.users))}
	for u, js := range p.users {
		if len(js) == 0 {
			continue
		}
		out.users[u] = make([]job, n)
		for i := range out.users[u] {
			out.users[u][i] = js[i%len(js)]
		}
	}
	return out
}

// saturate runs p (from cycled) closed loop for p.dur into outs and
// returns when the last answer arrived.
func saturate(conns []*conn, base string, p *plan, outs [][]outcome) time.Duration {
	start := time.Now()
	runPlan(conns, base, p, outs, start, p.dur, true, nil)
	var end time.Duration
	for u := range outs {
		for k := range outs[u] {
			end = max(end, outs[u][k].done)
		}
	}
	return end
}

// completed counts a checked phase's correct answers per class and the
// work they carry (input.work).
func completed(p *plan, outs [][]outcome) (answers [numClasses]int, work int) {
	for u := range outs {
		for k := range outs[u] {
			if o := &outs[u][k]; o.attempted() && !o.failed() {
				in := &p.inputs[p.users[u][k].in]
				answers[in.class]++
				work += in.work()
			}
		}
	}
	return answers, work
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies returns the due times and latencies in ms of the class's
// attempted requests; a failed request, a backlog included, counts as
// missing every limit (+Inf).
func latencies(p *plan, outs [][]outcome, class int) ([]time.Duration, []float64) {
	var ts []time.Duration
	var xs []float64
	for u := range outs {
		for k := range outs[u] {
			o := &outs[u][k]
			if !o.attempted() || p.inputs[p.users[u][k].in].class != class {
				continue
			}
			ts = append(ts, o.due)
			if o.failed() {
				xs = append(xs, math.Inf(1))
			} else {
				xs = append(xs, float64(o.latency())/1e6)
			}
		}
	}
	return ts, xs
}

// series collects one class's latency samples over several phases, with
// each sample's time on a common clock.
type series struct {
	ts []time.Duration
	xs []float64
}

// add appends a phase's samples of the class; offset places the phase on
// the series' clock.
func (s *series) add(p *plan, outs [][]outcome, class int, offset time.Duration) {
	ts, xs := latencies(p, outs, class)
	for i := range ts {
		s.ts = append(s.ts, ts[i]+offset)
	}
	s.xs = append(s.xs, xs...)
}

// addLags appends how late each sent request of a phase went out, in ms.
func (s *series) addLags(outs [][]outcome, offset time.Duration) {
	for u := range outs {
		for k := range outs[u] {
			if o := &outs[u][k]; !o.unsent {
				s.ts = append(s.ts, o.due+offset)
				s.xs = append(s.xs, float64(o.lag())/1e6)
			}
		}
	}
}

func (s *series) summary() summary { return windowed(s.ts, s.xs) }

// phaseRate is an open-loop phase's offered and achieved request rate.
type phaseRate struct {
	Offered  float64 `json:"offered_per_s"`
	Achieved float64 `json:"achieved_per_s"`
}

// offeredAchieved compares the scheduled rate with the rate of correct
// answers over the phase (or until the last answer, if later).
func offeredAchieved(p *plan, outs [][]outcome) phaseRate {
	answers, _ := completed(p, outs)
	ok := 0
	for _, n := range answers {
		ok += n
	}
	end := p.dur
	for u := range outs {
		for k := range outs[u] {
			end = max(end, outs[u][k].done)
		}
	}
	return phaseRate{Offered: float64(p.scheduled()) / p.dur.Seconds(), Achieved: float64(ok) / end.Seconds()}
}

// classSummary is the class's windowed latency summary over the phase.
func classSummary(p *plan, outs [][]outcome, class int) summary {
	ts, xs := latencies(p, outs, class)
	return windowed(ts, xs)
}

func (w *reqWorkload) run(r *run) error {
	var rec *recorder
	if r.trace {
		rec = newRecorder(time.Now(), 1<<18)
	}
	st, times, err := buildTimed(setupBuilds, func() (*stack, error) { return startStack(w.cfg, rec) }, w.ready)
	if err != nil {
		return err
	}
	defer st.close()
	r.rep.SetupS = times
	conns := []*conn{newConn(), newConn()}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()

	wp := w.operating(tagWarm, warmup)
	var warm tally
	warm.checkOutcomes(&wp, runPhase(conns, st.base, &wp, nil))
	r.note("warmup_failed", warm.failed)

	total := time.Duration(r.seconds) * time.Second
	if r.trace {
		runtime.GC()
		return w.traced(r, st, conns, rec, total)
	}
	opDur := total / 2 / rounds
	satDur := total/rounds - opDur
	// The driver's inputs and outcome slots are allocated outside the
	// timed windows, and the live heap they add is measured and taken
	// off heap_peak_mb, so the figure is finserve's. The saturation plan
	// is reused by every round; each operating plan is made just before
	// its round, which keeps the driver's share of the heap small.
	var sat plan
	var satOuts [][]outcome
	var heap *heapSampler
	satBytes := driverBytes(func() {
		heap = newHeapSampler(total)
		sat = w.saturation(tagSaturation)
		sat.dur = satDur
		sat = cycled(sat, int(satMaxRate*satDur.Seconds()))
		satOuts = sat.newOutcomes()
	})

	var prims, auxes, lags series
	var caps, rawCaps, cpuCaps, driverMB, probes []float64
	var rates []phaseRate
	var satAnswers [numClasses]int
	for i := 0; i < rounds; i++ {
		offset := time.Duration(i) * (opDur + satDur)
		var op plan
		var outs [][]outcome
		opBytes := driverBytes(func() {
			op = w.operating(tagOperating<<8|uint64(i), opDur)
			outs = op.newOutcomes()
		})
		driverMB = append(driverMB, float64(opBytes+satBytes)/(1<<20))

		heap.resume(opBytes + satBytes)
		runOpen(conns, st.base, &op, outs, nil)
		heap.pause()
		r.t.checkOutcomes(&op, outs)
		prims.add(&op, outs, w.primary, offset)
		auxes.add(&op, outs, w.aux, offset)
		lags.addLags(outs, offset)
		rates = append(rates, offeredAchieved(&op, outs))

		runtime.GC()
		probe := hostProbe(runtime.GOMAXPROCS(0), probeTime)
		heap.resume(opBytes + satBytes)
		cpu0 := processCPU()
		end := saturate(conns, st.base, &sat, satOuts)
		cpu := processCPU() - cpu0
		heap.pause()
		// The round's operating plan stays live through the saturation
		// phase, so opBytes is still the driver's share.
		runtime.KeepAlive(&op)
		runtime.KeepAlive(outs)
		r.t.checkOutcomes(&sat, satOuts)
		answers, work := completed(&sat, satOuts)
		n := 0
		for c := range answers {
			satAnswers[c] += answers[c]
			n += answers[c]
		}
		caps = append(caps, ratio(float64(n), end.Seconds()))
		raw := ratio(float64(work), cpu.Seconds())
		rawCaps = append(rawCaps, raw)
		probes = append(probes, probe)
		cpuCaps = append(cpuCaps, raw*probeRef/probe)
	}
	peak := heap.stop()
	r.note("heap_collections", heap.collections)
	prim, aux := prims.summary(), auxes.summary()
	capacity, rawCapacity, cpuCapacity := median(caps), median(rawCaps), median(cpuCaps)
	lag := lags.summary()
	satSent := 0
	for _, n := range satAnswers {
		satSent += n
	}
	r.note("saturation_per_round", caps)
	r.note("probe_per_cpu_second_per_round", probes)
	r.note("saturation_answers_per_class", satAnswers)
	r.note("operating_rates", rates)
	r.note("driver_heap_mb_per_round", driverMB)
	r.note("answers_checked_after_window", r.t.lateChecked)
	r.name(named{Name: "driver.lag_p99_ms", Value: lag.Tail, Unit: "ms", Samples: lag.N, Percentile: float64(lag.TailPM) / 10})
	r.note("saturation_work_per_cpu_second_per_round", rawCaps)

	r.set("setup_s", median(times), "s")
	r.set("throughput_per_cpu_s", cpuCapacity, "1/cpu-s")
	r.set("heap_peak_mb", peak, "MB")

	pn, an := classNames[w.primary], classNames[w.aux]
	r.note(pn, prim)
	r.note(an, aux)
	r.name(named{Name: "setup_s", Value: median(times), Unit: "s", Samples: len(times)})
	r.name(named{Name: pn + "_p50_ms", Value: prim.P50, Unit: "ms", Samples: prim.N, Percentile: 50})
	r.name(named{Name: pn + "_p99_ms", Value: prim.Tail, Unit: "ms", Samples: prim.N, Percentile: float64(prim.TailPM) / 10})
	r.name(named{Name: an + "_p50_ms", Value: aux.P50, Unit: "ms", Samples: aux.N, Percentile: 50})
	r.name(named{Name: an + "_p99_ms", Value: aux.Tail, Unit: "ms", Samples: aux.N, Percentile: float64(aux.TailPM) / 10})
	r.name(named{Name: "saturation_rps", Value: capacity, Unit: "req/s", Samples: satSent})
	r.name(named{Name: "saturation_work_per_cpu_s", Value: rawCapacity, Unit: "1/cpu-s", Samples: satSent})
	r.name(named{Name: "throughput_per_cpu_s", Value: cpuCapacity, Unit: "1/cpu-s", Samples: satSent})
	r.name(named{Name: "fail_ratio", Value: ratio(float64(r.t.failed), float64(r.t.attempted)), Unit: "ratio", Samples: r.t.attempted})
	r.name(named{Name: "heap_peak_mb", Value: peak, Unit: "MB"})
	return nil
}

// heapSampler tracks finserve's Go heap during the timed windows. Every
// millisecond it reads the live heap the latest collection marked
// (runtime/metrics), less the driver's own share (see driverBytes),
// which each window passes to resume. Readings start at a window's
// first collection: until then the figure is the one the benchmark's
// own forced collection left before the window, with finserve idle.
// The reported figure is the 90th percentile of the readings: the live
// heap finserve stays under for nine tenths of the measured time. The
// live heap, unlike the heap including garbage, does not depend on where
// in its sawtooth a reading falls, and a percentile over time, unlike a
// maximum, is not set by one collection that caught many requests in
// flight.
type heapSampler struct {
	active atomic.Bool
	window atomic.Int64  // counts resumes
	driver atomic.Uint64 // bytes of the live heap that are the driver's
	stopCh chan struct{}
	wg     sync.WaitGroup

	// Owned by the sampling goroutine until stop returns. mb is
	// allocated up front, so sampling allocates nothing.
	mb          []float32 // MB, one reading per active millisecond
	collections int       // collections seen while active
}

// heapPermille is the percentile of the readings that heap_peak_mb
// reports.
const heapPermille = 900

const heapMetric = "/gc/heap/live:bytes"

// newHeapSampler starts a paused sampler with room for d of readings.
// Its buffer is the driver's memory: make it inside driverBytes.
func newHeapSampler(d time.Duration) *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), mb: make([]float32, 0, d/time.Millisecond+1024)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		last := s[1].Value.Uint64()
		var window int64 // the window readings are taken in; 0 = none yet
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				metrics.Read(s)
				n := s[1].Value.Uint64()
				if !h.active.Load() {
					last = n
					continue
				}
				if n != last {
					h.collections += int(n - last)
					last = n
					window = h.window.Load()
				}
				if window == h.window.Load() && len(h.mb) < cap(h.mb) {
					v, d := s[0].Value.Uint64(), h.driver.Load()
					h.mb = append(h.mb, float32(v-min(v, d))/(1<<20))
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) pause() { h.active.Store(false) }

// resume samples again, with driver bytes of the live heap belonging to
// the driver.
func (h *heapSampler) resume(driver uint64) {
	h.driver.Store(driver)
	h.window.Add(1)
	h.active.Store(true)
}

// liveHeap collects garbage and returns the live heap in bytes. It
// collects twice: the first collection moves what sync.Pools hold to
// their victim caches and the second frees it, so two calls see the
// pools in the same state.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// driverBytes runs alloc and returns how much the live heap grew: the
// memory of what alloc made and keeps, which is the driver's and not
// finserve's. It is called while finserve is idle or nearly so.
func driverBytes(alloc func()) uint64 {
	before := liveHeap()
	alloc()
	if after := liveHeap(); after > before {
		return after - before
	}
	return 0
}

// stop ends sampling and returns the heapPermille percentile of the
// readings in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	if len(h.mb) == 0 {
		return 0
	}
	v := make([]float64, len(h.mb))
	for i, x := range h.mb {
		v[i] = float64(x)
	}
	sort.Float64s(v)
	return v[rankIndex(len(v), heapPermille)]
}

// runtimeCounters are the runtime/metrics totals the traced run diffs.
type runtimeCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}
