package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// This file is the coordinator work queue, the only way work leaves
// a Dispatcher: instead of assigning each shard to a peer up front, a
// whole phase's shards are enqueued at once and *pulled* — every peer
// worker (and the local fallback) claims the next unclaimed item the
// moment it is idle, so fast peers naturally take more work and a
// slow peer holds at most its in-flight items. A straggler — an item
// in flight longer than an EWMA-derived threshold — is re-dispatched
// to another idle worker with first-completion-wins: whichever
// attempt finishes first settles the item and cancels the other (the
// loser's failure is forgiven everywhere — breakers, counters,
// latency estimates).
// Execution is idempotent and every item settles exactly once, so
// scheduling decides only where and when a shard runs, never what the
// caller merges.

// QueueItem is one unit of work handed to RunQueue.
type QueueItem struct {
	// Key names the item for logging and deterministic backoff jitter.
	Key string
	// Payload is the serialized work sent to peers.
	Payload []byte
	// Accept validates a peer's response body before it is trusted; a
	// rejected body fails the attempt like any transport error.
	Accept func([]byte) error
	// Local executes the item on the caller's node and returns the
	// result body. It is invoked at most once per item; an error from
	// it fails the whole queue (remote execution of other items is
	// cancelled — a shard that not even the local engine can run is a
	// job failure, not a scheduling problem).
	Local func() ([]byte, error)
	// OnDone, when set, is called exactly once, with the winning
	// body, at the moment the item settles — before RunQueue returns,
	// off the queue lock. Callers use it for incremental durability
	// (journaling each shard as it completes).
	OnDone func(body []byte)
}

// qAttempt is one execution of an item in flight.
type qAttempt struct {
	peer    string // "" = local
	started time.Time
	cancel  context.CancelCauseFunc
	stolen  bool
}

// qItem is the scheduler's view of one QueueItem.
type qItem struct {
	it             QueueItem
	done           bool
	body           []byte
	remoteAttempts int       // completed (failed or overloaded) remote attempts
	nextEligible   time.Time // backoff gate for the next remote attempt
	localStarted   bool
	inflight       []*qAttempt
	enqueued       time.Time
	claimed        bool // queue-wait recorded
}

// runQueue is the shared state of one RunQueue call.
type runQueue struct {
	d     *Dispatcher
	mu    sync.Mutex
	cond  *sync.Cond
	items []*qItem
	left  int // items not yet settled
	err   error
	qctx  context.Context
	stop  context.CancelCauseFunc
}

// RunQueue executes every item — remotely where peers have capacity,
// locally otherwise — and returns the result bodies in item order.
// It returns when every item has settled, when any item becomes
// unrunnable (its local execution failed), or when ctx ends. Every
// remote attempt is bounded by AttemptTimeout and gated by the peer's
// breaker; a failed attempt backs the item off deterministically (or
// for the peer's Retry-After on a 503) before its next attempt, and
// after MaxAttempts the item falls back to local execution. Stealing
// and the local pull policy are tuned by Config.
func (d *Dispatcher) RunQueue(ctx context.Context, items []QueueItem) ([][]byte, error) {
	if len(items) == 0 {
		return nil, nil
	}
	qctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	q := &runQueue{d: d, qctx: qctx, stop: stop, left: len(items)}
	q.cond = sync.NewCond(&q.mu)
	now := time.Now()
	q.items = make([]*qItem, len(items))
	for i := range items {
		q.items[i] = &qItem{it: items[i], enqueued: now}
	}

	var wg sync.WaitGroup
	remote := len(d.cfg.Peers) > 0 && d.cfg.Transport != nil
	if remote {
		for _, p := range d.cfg.Peers {
			for s := 0; s < d.cfg.PeerSlots; s++ {
				wg.Add(1)
				go func(p string) {
					defer wg.Done()
					q.peerWorker(p)
				}(p)
			}
		}
	}
	for s := 0; s < d.cfg.LocalSlots; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			q.localWorker(id, remote)
		}(s)
	}
	// Periodic broadcast: wakes idle workers so backoff expiries and
	// steal thresholds are noticed without per-item timers, and turns
	// context cancellation into worker wake-ups.
	tick := time.NewTicker(d.cfg.StealInterval)
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-qctx.Done():
				q.cond.Broadcast()
				return
			case <-tick.C:
				q.cond.Broadcast()
			}
		}
	}()
	wg.Wait()
	stop(nil)
	tick.Stop()
	<-tickDone

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return nil, q.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(q.items))
	for i, it := range q.items {
		if !it.done {
			return nil, fmt.Errorf("cluster: item %s never settled", it.it.Key)
		}
		bodies[i] = it.body
	}
	return bodies, nil
}

// finished reports (under q.mu) whether workers should exit.
func (q *runQueue) finished() bool {
	return q.left == 0 || q.err != nil || q.qctx.Err() != nil
}

// stealThreshold is how long an attempt may be in flight before the
// item counts as a straggler: StealMultiple × the fastest sampled
// peer's EWMA latency, floored by StealAfterMin and capped by the
// attempt timeout. Deriving it from the *fastest* peer's estimate —
// not the holder's own — is what makes a consistently slow peer
// stealable: if a well-placed shard would have finished several times
// over, the item is re-dispatched no matter whose queue it sits in.
func (q *runQueue) stealThreshold() time.Duration {
	th := q.d.cfg.StealAfterMin
	if best, ok := q.d.tracker.bestEwma(); ok {
		t := time.Duration(q.d.cfg.StealMultiple * best * float64(time.Millisecond))
		if t > th {
			th = t
		}
	}
	if th > q.d.cfg.AttemptTimeout {
		th = q.d.cfg.AttemptTimeout
	}
	return th
}

// claimFresh returns the first pending item with no execution in
// flight that is eligible for a remote attempt.
func (q *runQueue) claimFresh(now time.Time) *qItem {
	for _, it := range q.items {
		if it.done || it.localStarted || len(it.inflight) > 0 {
			continue
		}
		if it.remoteAttempts >= q.d.cfg.MaxAttempts || now.Before(it.nextEligible) {
			continue
		}
		return it
	}
	return nil
}

// claimSteal returns the first straggler item peer p may re-dispatch:
// exactly one remote attempt in flight, on another peer, past the
// steal threshold — and p is not itself slower than the holder.
func (q *runQueue) claimSteal(p string, now time.Time) *qItem {
	if q.d.cfg.DisableStealing {
		return nil
	}
	th := q.stealThreshold()
	for _, it := range q.items {
		if it.done || len(it.inflight) != 1 {
			continue
		}
		a := it.inflight[0]
		if a.peer == "" || a.peer == p || now.Sub(a.started) < th {
			continue
		}
		if it.remoteAttempts >= q.d.cfg.MaxAttempts {
			continue
		}
		if pe, ok := q.d.tracker.ewma(p); ok {
			if he, hok := q.d.tracker.ewma(a.peer); hok && pe > he {
				continue // p would be a downgrade, leave it to a faster peer
			}
		}
		return it
	}
	return nil
}

// peerWorker pulls and executes items on behalf of one peer until the
// queue winds down.
func (q *runQueue) peerWorker(p string) {
	for {
		q.mu.Lock()
		var it *qItem
		stolen := false
		for {
			if q.finished() {
				q.mu.Unlock()
				return
			}
			now := time.Now()
			if it = q.claimFresh(now); it != nil {
				break
			}
			if it = q.claimSteal(p, now); it != nil {
				stolen = true
				break
			}
			q.cond.Wait()
		}
		// The breaker is consulted only after a claimable item exists,
		// so a half-open trial slot is never claimed idly; if the
		// breaker refuses, the item stays unclaimed for other workers.
		if !q.d.breaker(p).Allow() {
			q.mu.Unlock()
			q.sleepTick()
			continue
		}
		actx, cancel := context.WithCancelCause(q.qctx)
		a := &qAttempt{peer: p, started: time.Now(), cancel: cancel, stolen: stolen}
		it.inflight = append(it.inflight, a)
		q.noteClaim(it, a)
		if stolen {
			q.d.metrics.bump(func(m *metrics) { m.steals++ })
			q.d.logf("cluster: %s: stealing from %s onto %s after %s",
				it.it.Key, it.inflight[0].peer, p, time.Since(it.inflight[0].started).Round(time.Millisecond))
		} else if it.remoteAttempts > 0 {
			// A fresh claim of an item whose earlier remote attempts
			// failed is a retry; a steal duplicates a live attempt
			// and is counted as a steal instead.
			q.d.metrics.add(p, func(s *peerStats) { s.retries++ })
			q.d.logf("cluster: %s: retry %d on %s", it.it.Key, it.remoteAttempts, p)
		}
		q.mu.Unlock()

		res := q.d.tryPeer(actx, p, it.it.Payload, it.it.Accept)
		cancel(nil)

		q.mu.Lock()
		q.dropAttempt(it, a)
		var onDone func([]byte)
		var body []byte
		if res.err == nil {
			onDone, body = q.settle(it, res.body, a)
		} else if !it.done && q.err == nil && q.qctx.Err() == nil {
			it.remoteAttempts++
			if res.overload && res.retryAfter > 0 {
				it.nextEligible = time.Now().Add(res.retryAfter)
			} else {
				it.nextEligible = time.Now().Add(
					backoffDelay(q.d.cfg.BackoffBase, q.d.cfg.BackoffCap, it.remoteAttempts, q.d.cfg.Seed, it.it.Key))
			}
			if it.remoteAttempts >= q.d.cfg.MaxAttempts {
				// Remote delivery abandoned; a local slot will pick the
				// item up. Wake one.
				q.cond.Broadcast()
			}
		}
		q.mu.Unlock()
		if onDone != nil {
			onDone(body)
		}
	}
}

// localWorker executes items on the caller's node. Slot 0 pulls
// unclaimed items alongside the peers (the local node is a capacity
// unit like any other); every slot drains items whose remote attempts
// are exhausted — with no peers at all, that is every item, so the
// queue degenerates to a bounded local pool.
func (q *runQueue) localWorker(id int, remote bool) {
	for {
		q.mu.Lock()
		var it *qItem
		fallback := false
		for {
			if q.finished() {
				q.mu.Unlock()
				return
			}
			if it = q.claimLocal(id, remote, &fallback); it != nil {
				break
			}
			q.cond.Wait()
		}
		a := &qAttempt{started: time.Now()}
		it.localStarted = true
		it.inflight = append(it.inflight, a)
		q.noteClaim(it, a)
		if fallback {
			q.d.metrics.bump(func(m *metrics) { m.fallbacks++ })
			q.d.logf("cluster: %s: local fallback (remote attempts exhausted)", it.it.Key)
		} else {
			q.d.metrics.bump(func(m *metrics) { m.localPulls++ })
		}
		q.mu.Unlock()

		body, err := runLocalItem(it.it)

		q.mu.Lock()
		q.dropAttempt(it, a)
		var onDone func([]byte)
		var winner []byte
		if err == nil {
			onDone, winner = q.settle(it, body, a)
		} else if !it.done && q.err == nil {
			// Local execution is the guaranteed path; its failure is
			// the item's failure, and an unrunnable item fails the
			// whole queue (the caller cannot merge a partial phase).
			q.err = fmt.Errorf("cluster: %s: local execution: %w", it.it.Key, err)
			q.stop(q.err)
			q.cond.Broadcast()
		}
		q.mu.Unlock()
		if onDone != nil {
			onDone(winner)
		}
	}
}

// claimLocal picks the next item a local slot may run (caller holds
// q.mu). Exhausted items go first at every slot; slot 0 additionally
// pulls unclaimed items, and — as a last resort, with double the
// usual threshold — steals a straggler whose remote attempt shows no
// sign of returning.
func (q *runQueue) claimLocal(id int, remote bool, fallback *bool) *qItem {
	for _, it := range q.items {
		if it.done || it.localStarted || len(it.inflight) > 1 {
			continue
		}
		if !remote || it.remoteAttempts >= q.d.cfg.MaxAttempts {
			if len(it.inflight) > 0 {
				// The final remote attempt is still in flight; its
				// settle or failure decides before local takes over.
				continue
			}
			*fallback = remote
			return it
		}
	}
	if id != 0 || !remote {
		return nil
	}
	for _, it := range q.items {
		if it.done || it.localStarted || len(it.inflight) > 0 {
			continue
		}
		*fallback = false
		return it
	}
	if !q.d.cfg.DisableStealing {
		th := 2 * q.stealThreshold()
		now := time.Now()
		for _, it := range q.items {
			if it.done || it.localStarted || len(it.inflight) != 1 {
				continue
			}
			a := it.inflight[0]
			if a.peer == "" || now.Sub(a.started) < th {
				continue
			}
			*fallback = false
			return it
		}
	}
	return nil
}

// noteClaim records an item's first claim for the queue-wait metric
// (caller holds q.mu).
func (q *runQueue) noteClaim(it *qItem, a *qAttempt) {
	if it.claimed {
		return
	}
	it.claimed = true
	wait := a.started.Sub(it.enqueued).Seconds()
	q.d.metrics.bump(func(m *metrics) { m.queueWaitSum += wait; m.queueWaitN++ })
}

// settle completes an item with the winning body (caller holds q.mu):
// exactly one settle wins, losers are cancelled with errShardWon so
// their failures are forgiven everywhere. Returns the OnDone callback
// (to run off the lock) when this call was the winner.
func (q *runQueue) settle(it *qItem, body []byte, a *qAttempt) (func([]byte), []byte) {
	if it.done {
		return nil, nil
	}
	it.done = true
	it.body = body
	q.left--
	wall := time.Since(a.started).Seconds()
	q.d.metrics.bump(func(m *metrics) { m.shardWallSum += wall; m.shardWallN++ })
	for _, other := range it.inflight {
		if other != a && other.cancel != nil {
			other.cancel(errShardWon)
		}
	}
	q.cond.Broadcast()
	return it.it.OnDone, body
}

// dropAttempt removes a finished attempt from an item's in-flight
// list (caller holds q.mu).
func (q *runQueue) dropAttempt(it *qItem, a *qAttempt) {
	for i, x := range it.inflight {
		if x == a {
			it.inflight = append(it.inflight[:i], it.inflight[i+1:]...)
			return
		}
	}
}

// sleepTick pauses a worker whose peer breaker refused admission, so
// it re-checks at steal-interval granularity instead of spinning.
func (q *runQueue) sleepTick() {
	t := time.NewTimer(q.d.cfg.StealInterval)
	defer t.Stop()
	select {
	case <-t.C:
	case <-q.qctx.Done():
	}
}

// runLocalItem executes an item's local closure, converting a panic
// into an error: the closure runs on a queue worker goroutine with no
// caller to recover for it.
func runLocalItem(it QueueItem) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("local execution panic: %v", r)
		}
	}()
	return it.Local()
}
