package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing: an in-memory span recorder fed from the benchmark's own
// wrappers around finserve's public surfaces — the router's inbound
// handler, the router's upstream transport, and each replica's handler.
// Nothing inside finserve changes. A span id crosses process-internal
// hops in two ways: the client and the transport send it in spanHeader,
// and the router wrapper stores its own id in the request context, which
// the shard router passes on to the upstream requests it builds from
// that context.

// spanHeader carries the caller's span id to the next hop.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's base time.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	base time.Time
	next atomic.Uint64
	// on switches the wrappers between recording and passing through,
	// so that one stack serves the untraced and the traced half of a run.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity)}
}

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(&s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// spanKey is the request-context key under which the router wrapper
// stores its span id for the upstream transport.
type spanKey struct{}

// untracedPath reports paths that are not request spans: the long-lived
// SSE stream and the control endpoints.
func untracedPath(p string) bool {
	return p == "/stream" || p == "/statsz" || p == "/healthz"
}

// tracedHandler records one span per request around h, named name plus
// the request path and parented to the id in spanHeader. With inCtx set
// it also stores its own id in the request context.
type tracedHandler struct {
	rec   *recorder
	name  string
	h     http.Handler
	inCtx bool
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.on.Load() || untracedPath(r.URL.Path) {
		t.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent or malformed: a root span
	id := t.rec.newID()
	start := t.rec.now()
	if t.inCtx {
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
	}
	t.h.ServeHTTP(w, r)
	t.rec.add(span{ID: id, Parent: parent, Name: t.name + r.URL.Path, Start: start, End: t.rec.now()})
}

// tracedTransport records one span per upstream attempt or partition of
// a traced router request: from the round trip's start until the router
// closes the response body, which it does after reading it whole.
// Requests without a parent span (health probes) pass through untraced.
type tracedTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok || !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := t.rec.now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.rec.add(span{ID: id, Parent: parent, Name: "upstream" + req.URL.Path, Start: start, End: t.rec.now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		t.rec.add(span{ID: id, Parent: parent, Name: "upstream" + req.URL.Path, Start: start, End: t.rec.now()})
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// selfTime is the parent span's duration minus the part of it that the
// children cover. Children may overlap one another (a scattered request's
// partitions run concurrently), so their intervals are clipped to the
// parent and merged before they are subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// childIndex groups spans by parent id.
func childIndex(spans []span) map[uint64][]span {
	idx := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			idx[s.Parent] = append(idx[s.Parent], s)
		}
	}
	return idx
}

// traceFile names the span file of one traced run.
func traceFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.jsonl", dir, workload, seed)
}
