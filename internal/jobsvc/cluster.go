package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/expr"
	"revnic/internal/symexec"
)

// This file is revnicd's coordinator mode: with Config.Coordinator
// set, a job's deterministic fork-join shard groups are serialized
// and fanned out to peer revnicd instances through the fault-tolerant
// cluster.Dispatcher (POST /shards on the peer side), and the merged
// summary is bit-identical to a single-node run of the same spec —
// the shard decomposition, task identities and merge order are pure
// functions of the spec, and shard execution itself is idempotent, so
// retries, steals and local fallbacks cannot change the result. The
// one exception is arena_nodes: a coordinator's arena never interns
// the intermediate expressions remote shards allocate on their own
// peers, so that gauge of allocator load is mode-dependent by nature.

// shardEnvelope is the wire form of one dispatched shard: the job
// spec (a peer rebuilds the identical engine configuration from it,
// including uploaded program images) plus the self-contained task.
type shardEnvelope struct {
	Spec JobSpec            `json:"spec"`
	Task *symexec.ShardTask `json:"task,omitempty"`
	// Fuzz carries a differential-fuzzing schedule batch instead of
	// an exploration task; exactly one of Task/Fuzz is set.
	Fuzz *fuzzShard `json:"fuzz,omitempty"`
	// DeadlineMS is the coordinator job's remaining wall budget in
	// milliseconds; the peer bounds the shard execution with it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// shardKey names one shard of one job: tasks are regenerated
// deterministically on a re-run of the same spec, so the key is
// stable across coordinator restarts — which is what lets journal
// replay match collected results to re-dispatched shards.
func shardKey(task *symexec.ShardTask) string {
	return fmt.Sprintf("%s/%d/%d", task.Phase, task.Seq, task.Index)
}

// queuedShard is one shard of one job handed to dispatchShards.
type queuedShard struct {
	// key names the shard in the journal (shardKey, fuzzShardKey).
	key string
	// env carries the shard's Task or Fuzz; dispatchShards fills in
	// the job spec and remaining deadline.
	env shardEnvelope
	// accept validates a result body before it is trusted, whether it
	// came from a peer or from the journal.
	accept func([]byte) error
	// local executes the shard on this node and returns its body.
	local func() ([]byte, error)
}

// dispatchShards runs one job's shards through the dispatcher's work
// queue and returns their result bodies in shard order. A shard whose
// result the journal replayed from a previous incarnation is reused
// without re-entering the queue — but only if it passes the same
// accept check as a peer's body, since the journal is a trust
// boundary too; a rejected record is re-executed. Every dispatched
// shard is journaled as dispatched, and as done (compactly, from the
// queue's OnDone) the moment it settles, so a coordinator crash
// mid-phase replays with the settled shards already collected.
func (s *Service) dispatchShards(ctx context.Context, j *job, shards []queuedShard) ([][]byte, error) {
	bodies := make([][]byte, len(shards))
	var deadlineMS int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineMS = max(time.Until(dl).Milliseconds(), 1)
	}
	items := make([]cluster.QueueItem, 0, len(shards))
	idxs := make([]int, 0, len(shards)) // queue position → shard index
	for i, sh := range shards {
		if raw, ok := j.shardCache[sh.key]; ok && sh.accept(raw) == nil {
			s.m.shardsReplayed.Add(1)
			bodies[i] = raw
			continue
		}
		env := sh.env
		env.Spec, env.DeadlineMS = j.Spec, deadlineMS
		payload, err := json.Marshal(env)
		if err != nil {
			return nil, err
		}
		s.journalAppend(journalRecord{
			T: recShardDispatched, ID: j.ID, TS: time.Now(), Key: sh.key,
		}, false)
		key := sh.key
		items = append(items, cluster.QueueItem{
			Key:     j.ID + "/" + key,
			Payload: payload,
			Accept:  sh.accept,
			Local:   sh.local,
			OnDone: func(body []byte) {
				// The journal is line-oriented; a peer's body may be
				// indented.
				var compact bytes.Buffer
				if json.Compact(&compact, body) == nil {
					s.journalAppend(journalRecord{
						T: recShardDone, ID: j.ID, TS: time.Now(), Key: key, Result: compact.Bytes(),
					}, false)
				}
			},
		})
		idxs = append(idxs, i)
	}
	if len(items) == 0 {
		return bodies, nil
	}
	out, err := s.dispatcher.RunQueue(ctx, items)
	if err != nil {
		return nil, err
	}
	for qi, body := range out {
		bodies[idxs[qi]] = body
	}
	return bodies, nil
}

// shardRunner adapts the cluster dispatcher to symexec.ShardRunner
// for one job: a whole phase's shard tasks enter the work queue at
// once (dispatchShards), where idle peers pull them and straggler
// shards are re-dispatched first-completion-wins. Scheduling only
// decides where and when a shard runs — the returned results are in
// task order and the engine's seed-order merge is untouched.
type shardRunner struct {
	s   *Service
	j   *job
	ctx context.Context
}

func (r *shardRunner) RunShards(tasks []*symexec.ShardTask, local func(*symexec.ShardTask) (*symexec.ShardResult, error)) ([]*symexec.ShardResult, error) {
	shards := make([]queuedShard, len(tasks))
	for i, task := range tasks {
		shards[i] = queuedShard{
			key:    shardKey(task),
			env:    shardEnvelope{Task: task},
			accept: acceptShardResult,
			local: func() ([]byte, error) {
				res, err := local(task)
				if err != nil {
					return nil, err
				}
				return json.Marshal(res)
			},
		}
	}
	bodies, err := r.s.dispatchShards(r.ctx, r.j, shards)
	if err != nil {
		return nil, err
	}
	results := make([]*symexec.ShardResult, len(bodies))
	for i, body := range bodies {
		var res symexec.ShardResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("jobsvc: shard %s: decode result: %w", shards[i].key, err)
		}
		results[i] = &res
	}
	return results, nil
}

// acceptShardResult validates a peer's response body before the
// dispatcher trusts it: a torn or truncated body fails the unmarshal
// and is retried like any other peer failure, and a structurally
// empty result (no collector) is rejected rather than merged.
func acceptShardResult(body []byte) error {
	var res symexec.ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if res.Collector == nil {
		return errors.New("shard result has no collector")
	}
	return nil
}

// executeSpec runs the full pipeline for one job, fanning shard
// groups out to the cluster when coordinator mode is on. A panic
// anywhere in the pipeline fails the job, not the daemon; the failure
// record carries the panic value and a trimmed stack so the operator
// can diagnose it from GET /jobs/{id} alone.
func (s *Service) executeSpec(j *job, deadline time.Time) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("jobsvc: pipeline panic: %v\n%s", r, trimStack(debug.Stack()))
		}
	}()
	if j.Spec.Fuzz != nil {
		// Differential fuzzing rides the same panic guard: a fault in
		// the fuzzer or minimizer fails the job, not the runner pool.
		return s.runFuzzJob(j, deadline)
	}
	var runner symexec.ShardRunner
	if s.dispatcher != nil {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if !deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		stop := j.stop
		go func() {
			select {
			case <-stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		runner = &shardRunner{s: s, j: j, ctx: ctx}
	}
	return runSpecHook(j.Spec, j.stop, deadline, runner)
}

// runSpecHook is runSpec behind a seam so tests can fault-inject the
// pipeline (e.g. force a panic to exercise the failure record).
var runSpecHook = runSpec

// trimStack keeps the head of a panic stack trace: enough frames to
// locate the fault, small enough to store in a job record and ship in
// every status response.
func trimStack(stack []byte) []byte {
	const maxLines = 16
	lines := bytes.SplitAfterN(stack, []byte("\n"), maxLines+1)
	if len(lines) <= maxLines {
		return bytes.TrimRight(stack, "\n")
	}
	trimmed := bytes.Join(lines[:maxLines], nil)
	return append(bytes.TrimRight(trimmed, "\n"), []byte("\n\t...")...)
}

// handleShard serves POST /shards: the peer side of coordinator
// dispatch. Admission control mirrors job submission: a draining
// peer refuses outright, and a peer already serving its ShardPool
// limit answers 503 with a Retry-After estimate — the dispatcher
// treats that as overload (wait and retry), not failure.
func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		s.m.shardsRejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable,
			errors.New("jobsvc: shard capacity exhausted"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var env shardEnvelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode shard envelope: %w", err))
		return
	}
	if (env.Task == nil) == (env.Fuzz == nil) {
		writeError(w, http.StatusBadRequest, errors.New("jobsvc: shard envelope must carry exactly one of task or fuzz"))
		return
	}
	if err := validate(env.Spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if env.Fuzz != nil {
		outs, err := s.executeFuzzShard(r.Context(), env)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.m.shardsServed.Add(1)
		writeJSON(w, http.StatusOK, outs)
		return
	}
	res, err := s.executeShard(r.Context(), env)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.shardsServed.Add(1)
	writeJSON(w, http.StatusOK, res)
}

// executeShard runs one remote shard task on this node, in a fresh
// arena, bounded by the request context (a dispatcher that gave up —
// timeout, steal won elsewhere, coordinator died — cancels it) and
// the envelope's remaining deadline.
func (s *Service) executeShard(ctx context.Context, env shardEnvelope) (res *symexec.ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("jobsvc: shard panic: %v\n%s", r, trimStack(debug.Stack()))
		}
	}()
	prog, shell, _, err := resolveProgram(env.Spec)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(env.Spec, expr.NewArena())
	cfg.Shell = shell
	cfg.Stop = ctx.Done()
	if env.DeadlineMS > 0 {
		cfg.Deadline = time.Now().Add(time.Duration(env.DeadlineMS) * time.Millisecond)
	}
	return symexec.ExecuteShardTask(prog, cfg, env.Task)
}

// ClusterSnapshot reports the dispatcher's per-peer counters and
// breaker states; ok is false when coordinator mode is off.
func (s *Service) ClusterSnapshot() (cluster.Snapshot, bool) {
	if s.dispatcher == nil {
		return cluster.Snapshot{}, false
	}
	return s.dispatcher.Snapshot(), true
}
