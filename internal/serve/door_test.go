package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDoorRefusals pins the entry checks every work endpoint shares, in
// their order: wrong method, draining, rate-limited and (for the pricing
// endpoints) an exhausted work budget. Each refusal's status, error body,
// Retry-After and shed counter must be the same on every endpoint.
func TestDoorRefusals(t *testing.T) {
	priceJSON := []byte(`{"options":[{"spot":100,"strike":100,"expiry":1}]}`)
	scenarioJSON, err := json.Marshal(scenarioTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct {
		name   string
		path   string
		method string
		cfg    Config
		body   []byte
	}{
		{"price", "/price", http.MethodPost, Config{}, priceJSON},
		{"price-cached", "/price", http.MethodPost, cacheConfig(), priceJSON},
		{"greeks", "/greeks", http.MethodPost, Config{}, priceJSON},
		{"scenario", "/scenario", http.MethodPost, Config{}, scenarioJSON},
		{"stream", "/stream", http.MethodGet, streamConfig(64, 10*time.Millisecond), nil},
	}
	cases := []struct {
		name       string
		tune       func(*Config)
		setup      func(t *testing.T, s *Server)
		wrongVerb  bool
		code       int
		msg        string // "" = "<method> required"
		retryAfter string
		shed       string // shed counter that must move by exactly 1
		noStream   bool
	}{
		{name: "method", wrongVerb: true, code: http.StatusMethodNotAllowed},
		{
			name:  "drain",
			setup: func(t *testing.T, s *Server) { s.StartDrain() },
			code:  http.StatusServiceUnavailable, msg: "server is draining",
			retryAfter: "1", shed: "drain",
		},
		{
			name: "rate",
			tune: func(c *Config) { c.Rate, c.Burst = 0.001, 1 },
			setup: func(t *testing.T, s *Server) {
				if !s.rate.allow() {
					t.Fatal("fresh bucket refused its burst token")
				}
			},
			code: http.StatusTooManyRequests, msg: "request rate limit exceeded", shed: "rate",
		},
		{
			name: "admission",
			tune: func(c *Config) { c.MaxUnits = 8 },
			setup: func(t *testing.T, s *Server) {
				held, ok := s.adm.acquire(s.adm.max, 0)
				if !ok {
					t.Fatal("could not hold the whole work budget")
				}
				t.Cleanup(func() { s.adm.release(held) })
			},
			code: http.StatusServiceUnavailable, msg: "work budget exhausted",
			retryAfter: "1", shed: "admission", noStream: true,
		},
	}
	for _, ep := range endpoints {
		for _, tc := range cases {
			if tc.noStream && ep.path == "/stream" {
				continue
			}
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				cfg := ep.cfg
				if tc.tune != nil {
					tc.tune(&cfg)
				}
				s := New(cfg)
				t.Cleanup(s.Close)
				if tc.setup != nil {
					tc.setup(t, s)
				}
				verb, msg := ep.method, tc.msg
				if tc.wrongVerb {
					verb = http.MethodPut
					msg = ep.method + " required"
				}
				before := s.statszSnapshot().Shed
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(verb, ep.path, bytes.NewReader(ep.body)))
				checkRefusal(t, rec, tc.code, msg, tc.retryAfter)
				after := s.statszSnapshot().Shed
				for k := range after {
					want := before[k]
					if k == tc.shed {
						want++
					}
					if after[k] != want {
						t.Errorf("shed.%s = %d, want %d", k, after[k], want)
					}
				}
			})
		}
	}

	// With no hub, GET /stream is 404 while any other method stays 405.
	s := New(Config{})
	t.Cleanup(s.Close)
	for _, c := range []struct {
		verb string
		code int
		msg  string
	}{
		{http.MethodGet, http.StatusNotFound, "streaming disabled"},
		{http.MethodPost, http.StatusMethodNotAllowed, "GET required"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.verb, "/stream", nil))
		checkRefusal(t, rec, c.code, c.msg, "")
	}
}

func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder, code int, msg, retryAfter string) {
	t.Helper()
	if rec.Code != code {
		t.Errorf("status = %d, want %d (%s)", rec.Code, code, rec.Body.Bytes())
	}
	want, _ := json.Marshal(map[string]string{"error": msg})
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Errorf("body = %q, want %q", got, string(want)+"\n")
	}
	if got := rec.Header().Get("Retry-After"); got != retryAfter {
		t.Errorf("Retry-After = %q, want %q", got, retryAfter)
	}
}
