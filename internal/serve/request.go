package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"finbench/internal/serve/deadline"
	"finbench/internal/serve/wire"
)

// The request path every work endpoint shares, one helper per stage:
// door (method → drain → rate limit), body read, admission, deadline,
// error mapping and the 200 writer. The wire types of the API live in
// internal/serve/wire, shared with the shard router and the loadgen
// client.

// HealthResponse is the GET /healthz body: liveness plus the load signals
// the shard router scores replicas by. Status is "ok" or "draining";
// draining replicas answer 503 with Retry-After so routers re-route
// instead of counting a crash.
type HealthResponse struct {
	Status        string  `json:"status"`
	InFlightUnits int64   `json:"in_flight_units"`
	MaxUnits      int64   `json:"max_units"`
	QueueDepth    int64   `json:"queue_depth"`
	UptimeS       float64 `json:"uptime_s"`
}

// errShed marks a request shed at admission; fail answers it with 503.
var errShed = errors.New("work budget exhausted")

// door runs the entry checks in order — method (405), drain (503 +
// Retry-After), rate limit (429) — answering the first that refuses.
// It reports whether the request may proceed.
func (s *Server) door(w http.ResponseWriter, r *http.Request, method string) bool {
	switch {
	case r.Method != method:
		s.writeError(w, http.StatusMethodNotAllowed, method+" required")
	case s.draining.Load():
		s.stats.shedDrain.Add(1)
		s.writeShed(w, "server is draining")
	case !s.rate.allow():
		s.stats.shedRate.Add(1)
		s.writeError(w, http.StatusTooManyRequests, "request rate limit exceeded")
	default:
		return true
	}
	return false
}

// maxBody bounds request bodies (an option is ~90 JSON bytes; 64MB covers
// the largest permitted batch with slack).
const maxBody = 64 << 20

// readBody reads the request body into a pooled buffer (release it with
// wire.PutBuffer) with the semantics of io.ReadAll(io.LimitReader(r.Body,
// maxBody)): bytes beyond maxBody are silently dropped, so the truncated
// body then fails decode. A failed read answers 400 and returns nil.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) *wire.Buffer {
	buf := wire.GetBuffer()
	b := buf.B[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := min(cap(b)-len(b), maxBody-len(b))
		if room == 0 {
			break
		}
		n, err := r.Body.Read(b[len(b) : len(b)+room])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			buf.B = b
			wire.PutBuffer(buf)
			s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return nil
		}
	}
	buf.B = b
	return buf
}

// admit takes units of the work budget, waiting at most AdmitWait, and
// feeds the outcome to the degrader. It returns the units held (pass
// them to s.adm.release) or, counting shed.admission, errShed.
func (s *Server) admit(units int64) (int64, error) {
	held, ok := s.adm.acquire(units, s.cfg.AdmitWait)
	if !ok {
		s.deg.noteShed()
		s.stats.shedAdmission.Add(1)
		return 0, errShed
	}
	s.deg.noteAdmit()
	return held, nil
}

// deadlineCtx acquires the request's pooled deadline context: the
// client's deadline_ms, capped by MaxDeadline (which also bounds requests
// that give none). Release it when the request is done.
func (s *Server) deadlineCtx(r *http.Request, deadlineMS int64) *deadline.Ctx {
	budget := s.cfg.MaxDeadline
	if d := time.Duration(deadlineMS) * time.Millisecond; deadlineMS > 0 && d < budget {
		budget = d
	}
	return deadline.Acquire(r.Context(), time.Now().Add(budget))
}

// fail answers a request whose work failed: a shed is 503 with
// Retry-After, an expired deadline or a gone client is 408 "<what>
// deadline exceeded", and anything else is 400 with the error's text.
func (s *Server) fail(w http.ResponseWriter, err error, what string) {
	switch {
	case errors.Is(err, errShed):
		s.writeShed(w, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusRequestTimeout, what+" deadline exceeded")
	default:
		s.writeError(w, http.StatusBadRequest, err.Error())
	}
}

// headerJSON, headerColumnar and headerEventStream are preassigned
// Content-Type values: a direct map assignment of a shared slice skips
// the per-request []string allocation of Header().Set. net/http never
// mutates header value slices.
var (
	headerJSON        = []string{"application/json"}
	headerColumnar    = []string{wire.ColumnarContentType}
	headerEventStream = []string{"text/event-stream"}
)

// writeOK writes a 200 whose body is already encoded: an append
// encoder's output, a columnar frame, or cached bytes replayed verbatim
// (nil for a stream, whose frames follow). ok false means the encoder
// refused a non-finite value; encoding/json refuses it too, so the answer
// stays what it always was, a 200 with an empty body.
func (s *Server) writeOK(w http.ResponseWriter, ctype []string, body []byte, ok bool) {
	w.Header()["Content-Type"] = ctype
	w.WriteHeader(http.StatusOK)
	s.stats.countCode(http.StatusOK)
	if ok {
		_, _ = w.Write(body)
	}
}
