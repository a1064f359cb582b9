package cluster

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler is the healthy-path peer: it answers with a JSON object
// naming the serving peer and echoing the payload length.
func echoHandler(peer string, body []byte) (*Response, error) {
	b, _ := json.Marshal(map[string]any{"peer": peer, "len": len(body)})
	return &Response{Status: 200, Body: b}, nil
}

// acceptJSON validates a body the way revnicd does: a full unmarshal,
// so truncated bodies are rejected.
func acceptJSON(b []byte) error {
	var v map[string]any
	return json.Unmarshal(b, &v)
}

func testDispatcher(ft *FaultTransport, peers []string, tweak func(*Config)) *Dispatcher {
	cfg := Config{
		Peers:          peers,
		Transport:      ft,
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffCap:     4 * time.Millisecond,
		Seed:           42,
		Breaker:        BreakerConfig{Window: 10, MinSamples: 100}, // effectively disabled unless test lowers it
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return NewDispatcher(cfg)
}

func peerTotals(s Snapshot) (attempts, retries, failures, overloads int64) {
	for _, p := range s.Peers {
		attempts += p.Attempts
		retries += p.Retries
		failures += p.Failures
		overloads += p.Overloads
	}
	return
}

// mustRunQueue runs items through d's work queue, failing the test on a
// queue error.
func mustRunQueue(t *testing.T, d *Dispatcher, items []QueueItem) [][]byte {
	t.Helper()
	bodies, err := d.RunQueue(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != len(items) {
		t.Fatalf("got %d bodies for %d items", len(bodies), len(items))
	}
	return bodies
}

// slowLocal is the local execution cost of the fault tests' items:
// long enough that the local capacity slot holds at most one item
// while the peers work through the rest. Each test faults the first
// two sends to each peer, so whichever peer serves at least three of
// the six items faults twice; the local slot can absorb at most one
// faulted item, and a peer retries the other.
const slowLocal = 400 * time.Millisecond

// faultFirstTwo scripts the first two sends to each peer with f, and
// allows enough attempts that no item exhausts them.
func faultFirstTwo(ft *FaultTransport, f Fault) func(*Config) {
	for _, p := range []string{"p1", "p2"} {
		ft.Script(p, f, f)
	}
	return func(c *Config) { c.MaxAttempts = 5 }
}

// TestDispatcherHealthyPath: with every peer healthy a batch settles
// without any fallback; the local capacity slot holds at most one slow
// item while the peers serve the rest.
func TestDispatcherHealthyPath(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	d := testDispatcher(ft, []string{"p1", "p2"}, nil)
	local := 0
	for i, body := range mustRunQueue(t, d, queueItemsWork(6, slowLocal, nil, nil)) {
		if !strings.Contains(string(body), `"len":6`) {
			t.Fatalf("body %d: unexpected %s", i, body)
		}
		if jsonPeerIs(body, "local") {
			local++
		}
	}
	if local > 1 {
		t.Fatalf("%d items ran locally on a healthy cluster, want at most 1", local)
	}
	s := d.Snapshot()
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0", s.Fallbacks)
	}
	if _, _, failures, _ := peerTotals(s); failures != 0 {
		t.Fatalf("peer failures = %d on a healthy cluster", failures)
	}
}

// TestDispatcherAllPeersDeadFallsBackLocal: with every peer dead the
// item still settles, from exactly one local execution.
func TestDispatcherAllPeersDeadFallsBackLocal(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	ft.Kill("p2")
	d := testDispatcher(ft, []string{"p1", "p2"}, nil)
	var localRuns atomic.Int64
	bodies := mustRunQueue(t, d, []QueueItem{{
		Key:     "k",
		Payload: []byte("x"),
		Accept:  acceptJSON,
		Local: func() ([]byte, error) {
			localRuns.Add(1)
			return []byte(`{"peer":"local"}`), nil
		},
	}})
	if string(bodies[0]) != `{"peer":"local"}` {
		t.Fatalf("unexpected body %s", bodies[0])
	}
	if localRuns.Load() != 1 {
		t.Fatalf("local ran %d times, want exactly 1", localRuns.Load())
	}
	if s := d.Snapshot(); s.Fallbacks+s.LocalPulls != 1 {
		t.Fatalf("fallbacks+localPulls = %d+%d, want 1 local execution", s.Fallbacks, s.LocalPulls)
	}
}

// TestDispatcherNoPeersRunsLocalDirectly: with no peers configured the
// transport is never used, and every item runs on a local slot as a
// plain pull rather than as a fallback from failed remote attempts.
func TestDispatcherNoPeersRunsLocalDirectly(t *testing.T) {
	d := testDispatcher(NewFaultTransport(echoHandler), nil, nil)
	for i, body := range mustRunQueue(t, d, queueItems(3, nil, nil)) {
		if !jsonPeerIs(body, "local") {
			t.Fatalf("body %d not from local execution: %s", i, body)
		}
	}
	s := d.Snapshot()
	if s.Fallbacks != 0 || s.LocalPulls != 3 {
		t.Fatalf("fallbacks=%d localPulls=%d, want 0/3", s.Fallbacks, s.LocalPulls)
	}
	if attempts, _, _, _ := peerTotals(s); attempts != 0 {
		t.Fatalf("remote attempts = %d with no peers", attempts)
	}
}

// TestDispatcherRetriesDropThenSucceeds: dropped connections are
// retried on a peer and settle remotely, and the retries are counted.
func TestDispatcherRetriesDropThenSucceeds(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	d := testDispatcher(ft, []string{"p1", "p2"}, faultFirstTwo(ft, Fault{Drop: true}))
	mustRunQueue(t, d, queueItemsWork(6, slowLocal, nil, nil))
	s := d.Snapshot()
	_, retries, failures, _ := peerTotals(s)
	if retries < 1 || failures < 1 {
		t.Fatalf("retries=%d failures=%d, want both >= 1", retries, failures)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d though retries could succeed", s.Fallbacks)
	}
}

// TestDispatcherTornBodyRetried: a body cut off mid-transfer fails
// Accept like any peer failure; the item is retried, never merged
// torn, and never falls back.
func TestDispatcherTornBodyRetried(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	d := testDispatcher(ft, []string{"p1", "p2"}, faultFirstTwo(ft, Fault{Torn: true}))
	for i, body := range mustRunQueue(t, d, queueItemsWork(6, slowLocal, nil, nil)) {
		if err := acceptJSON(body); err != nil {
			t.Fatalf("body %d is not valid JSON: %v", i, err)
		}
	}
	s := d.Snapshot()
	_, retries, failures, _ := peerTotals(s)
	if retries < 1 || failures < 1 {
		t.Fatalf("retries=%d failures=%d, want both >= 1", retries, failures)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d though retries could succeed", s.Fallbacks)
	}
}

// sendLog wraps a transport and records when each payload was sent.
type sendLog struct {
	Transport
	mu    sync.Mutex
	times map[string][]time.Time
}

func (l *sendLog) Send(ctx context.Context, peer string, body []byte) (*Response, error) {
	l.mu.Lock()
	l.times[string(body)] = append(l.times[string(body)], time.Now())
	l.mu.Unlock()
	return l.Transport.Send(ctx, peer, body)
}

// TestDispatcherOverloadIsNotBreakerFailure: a 503 is overload, not
// failure. It neither counts as a failure nor trips the breaker, and
// the item's next remote attempt waits out the peer's Retry-After.
func TestDispatcherOverloadIsNotBreakerFailure(t *testing.T) {
	const retryAfter = 60 * time.Millisecond
	ft := NewFaultTransport(echoHandler)
	// Enough 503s to trip the breaker if they counted as failures.
	for _, p := range []string{"p1", "p2"} {
		for i := 0; i < 2; i++ {
			ft.Script(p, Fault{Status: 503, RetryAfter: retryAfter})
		}
	}
	log := &sendLog{Transport: ft, times: map[string][]time.Time{}}
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.Transport = log
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5}
		c.MaxAttempts = 5
	})
	mustRunQueue(t, d, queueItemsWork(6, slowLocal, nil, nil))
	s := d.Snapshot()
	_, _, failures, overloads := peerTotals(s)
	if overloads < 1 {
		t.Fatalf("overloads = %d, want >= 1", overloads)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, want 0 (503 must not count)", failures)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d though peers would recover", s.Fallbacks)
	}
	for _, p := range s.Peers {
		if p.Breaker != "closed" {
			t.Fatalf("peer %s breaker %s after 503s, want closed", p.Peer, p.Breaker)
		}
	}
	resent := 0
	for payload, times := range log.times {
		for i := 1; i < len(times); i++ {
			resent++
			if gap := times[i].Sub(times[i-1]); gap < retryAfter {
				t.Fatalf("%s re-sent %s after a 503, before its %s Retry-After", payload, gap, retryAfter)
			}
		}
	}
	if resent == 0 {
		t.Fatal("no overloaded item was re-sent; the scenario did not engage")
	}
}

// tripBreaker runs queues against d until peer's breaker leaves the
// closed state.
func tripBreaker(t *testing.T, d *Dispatcher, peer string) {
	t.Helper()
	for round := 0; round < 20; round++ {
		mustRunQueue(t, d, queueItemsWork(4, 20*time.Millisecond, nil, nil))
		if d.breaker(peer).State() != BreakerClosed {
			return
		}
	}
	t.Fatalf("%s breaker still closed after 20 queues against a dead peer", peer)
}

// TestDispatcherBreakerSkipsDeadPeer: once a dead peer's breaker is
// open, no further sends reach it.
func TestDispatcherBreakerSkipsDeadPeer(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Hour}
		c.MaxAttempts = 2
	})
	tripBreaker(t, d, "p1")
	tripped := ft.Sends("p1")
	for i := 0; i < 3; i++ {
		mustRunQueue(t, d, queueItems(6, nil, nil))
	}
	if after := ft.Sends("p1"); after != tripped {
		t.Fatalf("open breaker let %d more sends through to dead peer", after-tripped)
	}
	var p1 PeerSnapshot
	for _, p := range d.Snapshot().Peers {
		if p.Peer == "p1" {
			p1 = p
		}
	}
	if p1.Breaker != "open" {
		t.Fatalf("p1 breaker %s, want open", p1.Breaker)
	}
}

func TestProberReclosesRecoveredPeer(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	d := testDispatcher(ft, []string{"p1"}, func(c *Config) {
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Millisecond}
	})
	// Trip the breaker through failed queue attempts.
	tripBreaker(t, d, "p1")
	// Peer comes back; the prober's successful probe is the half-open
	// trial that recloses the breaker.
	ft.mu.Lock()
	ft.dead["p1"] = false
	ft.mu.Unlock()
	stop := d.StartProber(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.breaker("p1").State() == BreakerClosed {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("breaker never reclosed; state %v", d.breaker("p1").State())
}
