// Command finservebench is the end-to-end and per-layer benchmark of
// finserve. One invocation runs one named workload against finserve
// built in-process, checks every answer, and prints its metrics:
//
//	finservebench --workload price_lone --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload's operating phase once untraced and once traced and
// prints the per-layer metrics and the tracing overhead. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it is a report with
// the run's metadata and each metric under its workload-specific name
// with its unit and sample count. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"finbench/internal/benchreg"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric under its workload-specific name, with the samples
// behind it and, for a tail, the percentile it actually is.
type named struct {
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// report is the run's metadata line.
type report struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Fingerprint benchreg.Env   `json:"fingerprint"`
	SetupS      []float64      `json:"setup_s_runs"`
	Named       []named        `json:"named"`
	Verified    int            `json:"verified"`
	FirstError  string         `json:"first_error,omitempty"`
	TraceFile   string         `json:"trace_file,omitempty"`
	Notes       map[string]any `json:"notes,omitempty"`
}

// run is one invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string

	t       tally
	metrics map[string]metric
	rep     report
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) name(n named) { r.rep.Named = append(r.rep.Named, n) }

func (r *run) note(k string, v any) {
	if r.rep.Notes == nil {
		r.rep.Notes = make(map[string]any)
	}
	r.rep.Notes[k] = v
}

type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"price_lone", runPriceLone},
	{"routed_mix", runRoutedMix},
	{"stream_fanout", runStreamFanout},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: price_lone, routed_mix or stream_fanout")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "finservebench: need --workload of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r := &run{
		workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		metrics: make(map[string]metric),
	}
	r.rep = report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: r.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Fingerprint: benchreg.Fingerprint(),
	}
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "finservebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := r.checkMetricSet(); err != nil {
		fmt.Fprintf(os.Stderr, "finservebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	r.rep.Verified = r.t.verified
	if r.t.firstErr != nil {
		r.rep.FirstError = r.t.firstErr.Error()
	}
	sort.Slice(r.rep.Named, func(i, j int) bool { return r.rep.Named[i].Name < r.rep.Named[j].Name })
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.t.failed == 0 && r.t.verified > 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(struct {
		Report report `json:"report"`
	}{r.rep})
	if err != nil {
		// A failed request is an infinite latency, which JSON cannot
		// carry; the result line below still reports the failure.
		line = fmt.Appendf(nil, `{"report":{"workload":%q,"error":%q}}`, w.name, err.Error())
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(out); err != nil {
		fmt.Fprintf(os.Stderr, "finservebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkMetricSet requires the run to report exactly the end-to-end
// metrics (untraced) or exactly the per-layer ones (traced), each with
// its declared unit.
func (r *run) checkMetricSet() error {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
