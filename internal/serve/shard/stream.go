package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"finbench/internal/serve/stream"
)

// Streaming fan-out: GET /stream on the router partitions the client's
// contract subscription across the routable replicas, relays each
// partition's upstream SSE stream, and re-multiplexes the frames onto the
// client connection. The frames' payload bytes are forwarded verbatim, so
// every Greeks value a routed subscriber sees is exactly what one replica
// pushed — the routed-bits-identical invariant extends to the feed.
//
// Robustness mirrors the request path:
//   - A dead replica ends its partition's upstream stream; the relay
//     re-subscribes the partition to a healthy replica (breaker-aware).
//     The fresh subscription's first snapshot IS the partition's resync —
//     the client state-replaces and no stale values survive.
//   - A replica's own drain goodbye is filtered out and treated as a
//     stream end (failover), never forwarded: the client's stream outlives
//     any one replica, and only the router's own shutdown says goodbye.
//   - Relays never block on the client: the merged channel is bounded and
//     sends are non-blocking. A client too slow to keep up overflows it
//     and is disconnected with a goodbye — shed, don't queue — so one
//     stalled subscriber cannot back-pressure the relays or the replicas.
const (
	// streamMergedBuffer bounds the per-client merged frame queue.
	streamMergedBuffer = 256
	// streamRetryDelay spaces re-subscription attempts when no replica is
	// routable or a subscription attempt fails outright.
	streamRetryDelay = 100 * time.Millisecond
)

// relayMsg is one upstream frame, classified by event name so the writer
// can rewrite hellos and count the rest.
type relayMsg struct {
	event string
	data  []byte
}

// routeStream serves one routed SSE subscription.
func (r *Router) routeStream(w http.ResponseWriter, req *http.Request) {
	r.streamRequests.Add(1)
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := req.URL.Query()
	ids, err := stream.ParseSubscription(q.Get("contracts"), q.Get("ids"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if ids == nil {
		// A replica resolves "everything" against its own universe; the
		// router cannot know any replica's universe, so it refuses rather
		// than guess.
		writeError(w, http.StatusBadRequest,
			"router /stream requires an explicit subscription (contracts= or ids=)")
		return
	}
	parts := r.partitionStream(ids)
	if len(parts) == 0 {
		r.noReplica.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable replica")
		return
	}

	ctx, cancel := context.WithCancel(req.Context())
	merged := make(chan relayMsg, streamMergedBuffer)
	overflow := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			r.relayPartition(ctx, part, merged, overflow)
		}(part)
	}
	defer func() {
		// Relays never block on merged (sends are non-blocking), so the
		// cancel alone unsticks them; no draining needed before the join.
		cancel()
		wg.Wait()
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	writeFrame := func(frame []byte) bool {
		if frame == nil {
			return true
		}
		if err := rc.SetWriteDeadline(time.Now().Add(r.cfg.StreamWriteTimeout)); err != nil {
			return false
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	// Every relay's first message is its upstream's hello (per-channel
	// FIFO), so the first message dequeued here is always a hello: the
	// client sees hello first, rewritten to describe the whole
	// subscription. Later hellos (other partitions, failover
	// re-subscriptions) are dropped.
	helloSent := false
	for {
		select {
		case <-ctx.Done():
			// Client went away.
			return
		case <-r.stop:
			writeFrame(stream.MarshalFrame(stream.EventGoodbye,
				&stream.Goodbye{Reason: "draining"}))
			return
		case <-overflow:
			r.streamSlowDrops.Add(1)
			writeFrame(stream.MarshalFrame(stream.EventGoodbye,
				&stream.Goodbye{Reason: "slow client"}))
			return
		case m := <-merged:
			if m.event == stream.EventHello {
				if helloSent {
					continue
				}
				frame := stream.AppendFrame(nil, m.event, m.data)
				var hello stream.Hello
				if json.Unmarshal(m.data, &hello) == nil {
					hello.Subscribed = len(ids)
					frame = stream.MarshalFrame(stream.EventHello, &hello)
				}
				if !writeFrame(frame) {
					return
				}
				helloSent = true
				continue
			}
			if !writeFrame(stream.AppendFrame(nil, m.event, m.data)) {
				return
			}
		}
	}
}

// partitionStream splits a sorted id list into one contiguous range
// expression per routable replica (at most one partition per id) and
// counts the dispatch.
func (r *Router) partitionStream(ids []int) []string {
	n := 0
	for _, rep := range r.replicas {
		if rep.routable() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n > len(ids) {
		n = len(ids)
	}
	chunk := (len(ids) + n - 1) / n
	parts := make([]string, 0, n)
	for lo := 0; lo < len(ids); lo += chunk {
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		parts = append(parts, formatRanges(ids[lo:hi]))
	}
	r.streamPartitions.Add(uint64(len(parts)))
	return parts
}

// formatRanges compresses a sorted id list into the subscription
// grammar's range form ("0-63,80,128-191").
func formatRanges(ids []int) string {
	var b strings.Builder
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(ids[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(ids[j]))
		}
		i = j + 1
	}
	return b.String()
}

// relayPartition keeps one partition subscribed somewhere until the
// client or the router goes away: subscribe to the best replica, forward
// frames until that stream ends, then re-subscribe elsewhere. An
// established stream that ends counts as a resubscription (failover);
// an attempt that never established backs off briefly instead of
// hammering a dying fleet.
func (r *Router) relayPartition(ctx context.Context, contracts string, merged chan<- relayMsg, overflow chan<- struct{}) {
	var last *replica
	for {
		if ctx.Err() != nil {
			return
		}
		select {
		case <-r.stop:
			return
		default:
		}
		// A fresh routing state that excludes the replica whose stream
		// just ended, so a failover lands elsewhere when it can; pick's
		// last tier still takes a lone replica.
		st := newReqState()
		if last != nil {
			st.excluded[last] = true
		}
		rep := r.pick(st)
		if rep == nil {
			if !sleepCtx(ctx, r.stop, streamRetryDelay) {
				return
			}
			continue
		}
		established := r.relayOnce(ctx, rep, contracts, merged, overflow)
		if ctx.Err() != nil {
			return
		}
		select {
		case <-r.stop:
			return
		default:
		}
		last = rep
		if established {
			r.streamResubscribes.Add(1)
		} else if !sleepCtx(ctx, r.stop, streamRetryDelay) {
			return
		}
	}
}

// relayOnce subscribes one partition to rep and forwards its frames until
// the upstream stream ends; it reports whether the stream was ever
// established (at least one frame forwarded). The breaker admission from
// pick is settled exactly once, on the subscription outcome:
// shedding (503/429) is load, not brokenness; transport failure and 5xx
// are failures; an established stream ending later is settled by the next
// pick, not double-counted here.
func (r *Router) relayOnce(ctx context.Context, rep *replica, contracts string, merged chan<- relayMsg, overflow chan<- struct{}) bool {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		rep.url+"/stream?contracts="+contracts, nil)
	if err != nil {
		rep.breaker.Success() // request construction is not the replica's fault
		return false
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	resp, err := r.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			rep.breaker.Success() // cancelled, not evidence against the replica
		} else {
			rep.breaker.Failure()
		}
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			rep.breaker.Success() // alive and shedding
		} else {
			rep.breaker.Failure()
		}
		return false
	}
	rep.breaker.Success()
	rep.served.Add(1)

	fr := stream.NewFrameReader(resp.Body)
	established := false
	for {
		f, err := fr.Next()
		if err != nil {
			return established
		}
		if f.Event == stream.EventGoodbye {
			// The replica is draining. Never forwarded: the relay finds a
			// healthy replica and that subscription's snapshot resyncs the
			// partition — only the router's own shutdown ends the client's
			// stream.
			return established
		}
		established = true
		select {
		case merged <- relayMsg{event: f.Event, data: f.Data}:
		default:
			// Slow client: shed the stream (the writer says goodbye and
			// disconnects) rather than queue. Relays never block.
			select {
			case overflow <- struct{}{}:
			default:
			}
		}
	}
}

// sleepCtx sleeps d unless ctx or stop ends first.
func sleepCtx(ctx context.Context, stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
