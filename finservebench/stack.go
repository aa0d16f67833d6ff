package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"finbench/internal/serve"
	"finbench/internal/serve/shard"
	"finbench/internal/serve/stream"
)

// The system under test, built in-process: finserve replicas from
// serve.New and the router from shard.New, with the defaults of
// `finserve serve` and `finserve route`, each behind a net/http server
// on a 127.0.0.1 listener. A traced stack wraps the router's inbound
// handler, its upstream transport and each replica's handler.

// stackConfig selects the topology.
type stackConfig struct {
	replicas   int
	stream     *stream.Config // per replica; nil = streaming off
	router     bool
	cacheBytes int64 // router cache budget; 0 = off
}

type stack struct {
	cfg         stackConfig
	servers     []*serve.Server
	replicaURLs []string
	router      *shard.Router
	routerURL   string
	base        string // where the load goes
	subs        []*subscriber
	https       []*http.Server
	wg          sync.WaitGroup
}

// serve starts an HTTP server for h on a fresh loopback port.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed at close
	}()
	return "http://" + ln.Addr().String(), nil
}

func startStack(cfg stackConfig, rec *recorder) (*stack, error) {
	s := &stack{cfg: cfg}
	for i := 0; i < cfg.replicas; i++ {
		srv := serve.New(serve.Config{Stream: cfg.stream})
		s.servers = append(s.servers, srv)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = &tracedHandler{rec: rec, name: "replica", h: h}
		}
		url, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.replicaURLs = append(s.replicaURLs, url)
	}
	s.base = s.replicaURLs[0]
	if !cfg.router {
		return s, nil
	}
	rcfg := shard.Config{Backends: s.replicaURLs, CacheBytes: cfg.cacheBytes}
	if rec != nil {
		rcfg.Transport = &tracedTransport{rec: rec, base: http.DefaultTransport}
	}
	router, err := shard.New(rcfg)
	if err != nil {
		s.close()
		return nil, err
	}
	router.Start()
	s.router = router
	var h http.Handler = router
	if rec != nil {
		h = &tracedHandler{rec: rec, name: "router", h: h, inCtx: true}
	}
	url, err := s.serve(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.routerURL, s.base = url, url
	return s, nil
}

// close stops the subscribers, the listeners and connections, then the servers'
// background work, and waits for every Serve loop to return.
func (s *stack) close() {
	for _, sub := range s.subs {
		sub.stop()
	}
	for _, hs := range s.https {
		_ = hs.Close() // closing is best effort; Serve's return is awaited below
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.StartDrain()
		srv.Close()
	}
	s.wg.Wait()
}

var setupClient = &http.Client{Timeout: requestTimeout}

// waitRoutable polls the router's /healthz until every replica is
// routable.
func (s *stack) waitRoutable() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h shard.HealthzResponse
		if err := getJSON(s.routerURL+"/healthz", &h); err == nil && h.RoutableCount == s.cfg.replicas {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("router replicas not routable within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// answerOnce sends one request of in's class through the stack and
// requires a verified 200.
func (s *stack) answerOnce(in *input) error {
	resp, err := setupClient.Post(s.base+classPaths[in.class], "application/json", bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; the read error is what matters
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("set-up %s answered %d", classPaths[in.class], resp.StatusCode)
	}
	_, err = checkAnswer(in, body)
	return err
}

func getJSON(url string, v any) error {
	resp, err := setupClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statsz reads every replica's /statsz and, with a router, the router's.
type statsz struct {
	replicas []serve.StatszResponse
	router   *shard.StatszResponse
}

func (s *stack) statsz() (statsz, error) {
	var out statsz
	for _, u := range s.replicaURLs {
		var r serve.StatszResponse
		if err := getJSON(u+"/statsz", &r); err != nil {
			return out, err
		}
		out.replicas = append(out.replicas, r)
	}
	if s.routerURL != "" {
		var r shard.StatszResponse
		if err := getJSON(s.routerURL+"/statsz", &r); err != nil {
			return out, err
		}
		out.router = &r
	}
	return out, nil
}

// buildTimed builds stacks n times, timing each from the first
// constructor call until ready returns, and keeps the last stack. The
// earlier ones are closed.
func buildTimed(n int, build func() (*stack, error), ready func(*stack) error) (*stack, []float64, error) {
	var times []float64
	var kept *stack
	for i := 0; i < n; i++ {
		if kept != nil {
			kept.close()
			kept = nil
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		if err := ready(s); err != nil {
			s.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = s
	}
	return kept, times, nil
}
