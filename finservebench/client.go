package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The load generator: each connection is an independent open-loop user
// on its own keep-alive connection. It sends each request when it is
// due, or as soon as the previous one returns if it is late, and each
// request is timed from its due time, so a stall counts against every
// request queued behind it. How late the generator sent is recorded.
// In a closed-loop phase a connection instead sends its next request as
// soon as the previous one returns, to measure how much work the system
// completes per second.
//
// Every answer is compared as it arrives with the expected bytes
// computed before the phase (see expect in verify.go): a byte compare
// costs far less than the request, so checking stays out of the timings.
// An answer whose bytes differ is kept and decoded and checked value by
// value after the window (tally.checkOutcomes), so that a change of
// response layout costs the timed window no decoding.

// requestTimeout fails a request that has not completed in this long.
const requestTimeout = 10 * time.Second

// outcome is one request's result. Times are offsets from the phase
// start.
type outcome struct {
	due, sent, done time.Duration
	// unsent: the phase ended before it was sent. In an open-loop phase
	// that is a backlog the system did not work off, and err says so; in
	// a closed-loop phase it is the normal end of the phase.
	unsent bool
	status int
	err    error  // transport error, backlog or wrong answer
	size   int    // response body bytes
	hit    bool   // answered from a cache
	span   uint64 // client span id when traced
	// mismatch holds a 200 body whose bytes differ from the expected
	// ones until tally.checkOutcomes has checked it value by value.
	mismatch []byte
}

// errBacklog fails an open-loop request still unsent when its phase
// ends.
var errBacklog = errors.New("backlog: still unsent when the phase ended")

// attempted reports a request that counts as an attempt: sent, or
// abandoned in a backlog.
func (o *outcome) attempted() bool { return !o.unsent || o.err != nil }

// failed reports an attempted request that did not end in a correct 200.
func (o *outcome) failed() bool {
	return o.err != nil || (!o.unsent && o.status != http.StatusOK)
}

func (o *outcome) latency() time.Duration { return o.done - o.due }

func (o *outcome) lag() time.Duration { return o.sent - o.due }

// conn is one user's connection and its reusable response buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// newOutcomes allocates one outcome per scheduled request of p, before
// the phase, so that the phase itself holds no growing state.
func (p *plan) newOutcomes() [][]outcome {
	out := make([][]outcome, len(p.users))
	for u := range p.users {
		out[u] = make([]outcome, len(p.users[u]))
	}
	return out
}

// runPlan runs one phase into out (from p.newOutcomes; earlier contents
// are overwritten): every connection works through its schedule from
// start. A request not yet sent at cutoff is left unsent, and in an
// open-loop phase fails as a backlog. With closed set, due times are
// ignored and each connection sends back to back until its schedule or
// the cutoff runs out. rec, when set, receives one client span per
// request and the span id travels in spanHeader.
func runPlan(conns []*conn, base string, p *plan, out [][]outcome, start time.Time, cutoff time.Duration, closed bool, rec *recorder) {
	var wg sync.WaitGroup
	for u := range p.users {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conns[u].run(base, p, p.users[u], out[u], start, cutoff, closed, rec)
		}(u)
	}
	wg.Wait()
}

func (c *conn) run(base string, p *plan, jobs []job, out []outcome, start time.Time, cutoff time.Duration, closed bool, rec *recorder) {
	for k, j := range jobs {
		o := &out[k]
		*o = outcome{due: j.due}
		if closed {
			o.due = time.Since(start)
		} else if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		if time.Since(start) > cutoff {
			for i := k; i < len(jobs); i++ {
				out[i] = outcome{due: jobs[i].due, unsent: true}
				if !closed {
					out[i].err = errBacklog
				}
			}
			return
		}
		c.do(base, &p.inputs[j.in], o, start, rec)
	}
}

// do sends one request, reads its body and checks it.
func (c *conn) do(base string, in *input, o *outcome, start time.Time, rec *recorder) {
	req, err := http.NewRequest(http.MethodPost, base+classPaths[in.class], bytes.NewReader(in.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var spanStart int64
	if rec != nil {
		o.span = rec.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(o.span, 10))
		spanStart = rec.now()
	}
	o.sent = time.Since(start)
	resp, err := c.client.Do(req)
	if err != nil {
		o.done = time.Since(start)
		o.err = err
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read or failed; the read error is what matters
	o.done = time.Since(start)
	if rec != nil {
		rec.add(span{ID: o.span, Name: "client" + classPaths[in.class], Start: spanStart, End: rec.now()})
	}
	o.status = resp.StatusCode
	o.size = c.buf.Len()
	o.hit = resp.Header.Get("X-Finserve-Cache") == "hit"
	switch {
	case err != nil:
		o.err = err
	case o.status != http.StatusOK:
		o.err = fmt.Errorf("%s answered %d", classPaths[in.class], o.status)
	case !in.matches(c.buf.Bytes()):
		o.mismatch = bytes.Clone(c.buf.Bytes())
	}
}
