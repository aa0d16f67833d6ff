package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"finbench/internal/serve/stream"
)

// An SSE subscriber of the stream workload: one keep-alive connection
// reading frames as fast as they come. Per frame it records the receive
// time, the tick clock the event echoes and the number of entries; it
// keeps a seeded sample of whole frames for verification after the
// timed window. Decoding every frame would put the client's JSON cost
// on the CPUs the server is measured on, so only the sample is decoded.

// streamEvent is one received snapshot or greeks event.
type streamEvent struct {
	recv, tick int64 // wall-clock ns
	entries    int32
}

const (
	maxStreamEvents  = 1 << 16
	sampleP          = 0.02
	maxSampleFrames  = 48
	sampleArenaBytes = 4 << 20
	entriesPerSample = 16
)

type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	first  chan struct{} // closed at the first snapshot

	events []streamEvent
	n      atomic.Int64 // events[:n] are published

	errs, goodbyes atomic.Int64

	rng     *rand.Rand // reader-owned sampling stream
	mu      sync.Mutex
	arena   []byte   // fixed-size store for sampled frames
	samples [][]byte // sampled frames, slices of arena
}

var (
	tickTag = []byte(`"tick_ns":`)
	idTag   = []byte(`{"id":`)
)

// newSubscriber allocates a subscriber and its buffers. The buffers
// have a fixed size, so every subscriber holds the same memory.
func newSubscriber(seed int64, idx uint64) *subscriber {
	return &subscriber{
		done:   make(chan struct{}),
		first:  make(chan struct{}),
		events: make([]streamEvent, maxStreamEvents),
		rng:    seededRand(seed, 0x5ab0<<4|idx),
		arena:  make([]byte, 0, sampleArenaBytes),
	}
}

// subscribe opens a whole-universe subscription on base and starts its
// reader.
func subscribe(base string, seed int64, idx uint64) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close() // the status is the error
		cancel()
		return nil, fmt.Errorf("subscribe: %d", resp.StatusCode)
	}
	s := newSubscriber(seed, idx)
	s.cancel = cancel
	go s.read(ctx, resp)
	return s, nil
}

func (s *subscriber) read(ctx context.Context, resp *http.Response) {
	defer close(s.done)
	defer resp.Body.Close()
	fr := stream.NewFrameReader(resp.Body)
	firstSeen := false
	for {
		f, err := fr.Next()
		if err != nil {
			if ctx.Err() == nil {
				s.errs.Add(1)
			}
			return
		}
		switch f.Event {
		case stream.EventGoodbye:
			s.goodbyes.Add(1)
			return
		case stream.EventSnapshot, stream.EventGreeks:
		default:
			continue
		}
		recv := time.Now().UnixNano()
		if !firstSeen && f.Event == stream.EventSnapshot {
			firstSeen = true
			close(s.first)
		}
		if n := s.n.Load(); n < int64(len(s.events)) {
			s.events[n] = streamEvent{recv: recv, tick: parseTick(f.Data), entries: int32(bytes.Count(f.Data, idTag))}
			s.n.Store(n + 1)
		}
		if s.rng.Float64() < sampleP {
			s.mu.Lock()
			if len(s.samples) < maxSampleFrames && len(s.arena)+len(f.Data) <= cap(s.arena) {
				s.arena = append(s.arena, f.Data...)
				s.samples = append(s.samples, s.arena[len(s.arena)-len(f.Data):])
			}
			s.mu.Unlock()
		}
	}
}

// parseTick extracts the echoed tick clock without decoding the frame.
func parseTick(data []byte) int64 {
	i := bytes.Index(data, tickTag)
	if i < 0 {
		return 0
	}
	rest := data[i+len(tickTag):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	v, _ := strconv.ParseInt(string(rest[:j]), 10, 64) // a malformed clock reads as 0 and shows as staleness
	return v
}

// window returns the published events received in [from, to).
func (s *subscriber) window(from, to int64) []streamEvent {
	evs := s.events[:s.n.Load()]
	var out []streamEvent
	for _, e := range evs {
		if e.recv >= from && e.recv < to {
			out = append(out, e)
		}
	}
	return out
}

// stop cancels the subscription and waits for the reader.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}

// verifySamples decodes the sampled frames and reprices a seeded choice
// of their entries cold.
func (s *subscriber) verifySamples(t *tally, rng *rand.Rand) {
	s.mu.Lock()
	frames := s.samples
	s.mu.Unlock()
	for _, data := range frames {
		var ev stream.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			t.fail(fmt.Errorf("decode sampled stream frame: %w", err))
			continue
		}
		verifyEntries(t, rng, ev.Contracts)
	}
}

// verifyEntries reprices up to entriesPerSample seeded entries cold.
func verifyEntries(t *tally, rng *rand.Rand, entries []stream.Entry) {
	for k := 0; k < entriesPerSample && len(entries) > 0; k++ {
		e := &entries[rng.Intn(len(entries))]
		if err := checkEntry(e); err != nil {
			t.fail(err)
		} else {
			t.verified++
		}
	}
}
