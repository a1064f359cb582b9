package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Fault is one scripted misbehavior a FaultTransport injects into a
// request. Zero-valued fields do nothing; Latency composes with the
// other fields (the fault is applied after the wait).
type Fault struct {
	// Latency delays the request before anything else happens,
	// respecting context cancellation — with a latency longer than
	// the attempt timeout this models a straggler or hang.
	Latency time.Duration
	// Drop fails the request with a connection error.
	Drop bool
	// Die marks the peer dead: this and every later request (and
	// probe) fails, modeling a crashed process.
	Die bool
	// Status forces a non-200 response with this status code.
	Status int
	// RetryAfter accompanies Status (meaningful with 503).
	RetryAfter time.Duration
	// Torn truncates the real response body halfway, modeling a
	// connection cut mid-transfer that still yielded a status line.
	Torn bool
}

// FaultTransport wraps peer behavior with per-peer scripted fault
// queues, for tests of the dispatcher and of revnicd's cluster mode.
// Each Send consumes the peer's next scripted fault (if any) and
// applies it; with no fault pending the Handler serves the request.
type FaultTransport struct {
	// Handler is the healthy-path behavior of every peer.
	Handler func(peer string, body []byte) (*Response, error)

	mu      sync.Mutex
	scripts map[string][]Fault
	dead    map[string]bool
	sends   map[string]int
	slow    map[string]time.Duration
}

// NewFaultTransport builds a fault transport around the given
// healthy-path handler.
func NewFaultTransport(handler func(peer string, body []byte) (*Response, error)) *FaultTransport {
	return &FaultTransport{
		Handler: handler,
		scripts: make(map[string][]Fault),
		dead:    make(map[string]bool),
		sends:   make(map[string]int),
		slow:    make(map[string]time.Duration),
	}
}

// SetLatency gives a peer a persistent per-request delay — unlike a
// scripted Fault.Latency, which one Send consumes, this applies to
// every Send until changed. It models a chronically slow node (the
// straggler scenario of the scheduling bench); scripted faults stack
// on top.
func (f *FaultTransport) SetLatency(peer string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slow[peer] = d
}

// Script appends faults to a peer's queue; each Send to that peer
// consumes one.
func (f *FaultTransport) Script(peer string, faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scripts[peer] = append(f.scripts[peer], faults...)
}

// Kill marks a peer dead immediately.
func (f *FaultTransport) Kill(peer string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[peer] = true
}

// Sends reports how many Send calls a peer has received.
func (f *FaultTransport) Sends(peer string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends[peer]
}

// Send applies the peer's next scripted fault, then (if the fault
// allows a response at all) serves the request through Handler.
func (f *FaultTransport) Send(ctx context.Context, peer string, body []byte) (*Response, error) {
	f.mu.Lock()
	f.sends[peer]++
	if f.dead[peer] {
		f.mu.Unlock()
		return nil, fmt.Errorf("fault: peer %s is dead", peer)
	}
	var fault Fault
	hasFault := false
	if q := f.scripts[peer]; len(q) > 0 {
		fault, f.scripts[peer] = q[0], q[1:]
		hasFault = true
	}
	slow := f.slow[peer]
	f.mu.Unlock()

	if slow > 0 {
		if err := sleepCtx(ctx, slow); err != nil {
			return nil, err
		}
	}
	if hasFault && fault.Latency > 0 {
		if err := sleepCtx(ctx, fault.Latency); err != nil {
			return nil, err
		}
	}
	if hasFault {
		switch {
		case fault.Die:
			f.Kill(peer)
			return nil, fmt.Errorf("fault: peer %s died mid-flight", peer)
		case fault.Drop:
			return nil, fmt.Errorf("fault: connection to %s dropped", peer)
		case fault.Status != 0:
			return &Response{Status: fault.Status, RetryAfter: fault.RetryAfter}, nil
		}
	}
	resp, err := f.Handler(peer, body)
	if err != nil {
		return nil, err
	}
	if hasFault && fault.Torn {
		torn := make([]byte, len(resp.Body)/2)
		copy(torn, resp.Body)
		return &Response{Status: resp.Status, Body: torn, RetryAfter: resp.RetryAfter}, nil
	}
	return resp, nil
}

// Probe fails only for dead peers.
func (f *FaultTransport) Probe(ctx context.Context, peer string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[peer] {
		return fmt.Errorf("fault: peer %s is dead", peer)
	}
	return nil
}

// sleepCtx pauses for delay unless the context ends first.
func sleepCtx(ctx context.Context, delay time.Duration) error {
	if delay <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
