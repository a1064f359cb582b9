package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/drivers"
	"revnic/internal/jobsvc"
)

const (
	// serviceFuzzBudget keeps the service's fuzz jobs small next to
	// its reverse jobs.
	serviceFuzzBudget = 16
	// serviceFuzzJobs fuzz jobs join the 15 reverse jobs of each
	// round: about one job in five.
	serviceFuzzJobs = 4
	// pollInterval is how often a client asks whether its job is done.
	pollInterval = 2 * time.Millisecond
	// serviceTimeout bounds any one job, reference run or shutdown.
	serviceTimeout = 60 * time.Second
)

type serviceInput struct {
	key  string
	spec jobsvc.JobSpec
}

// serviceWorkload submits jobs over HTTP to an in-process revnicd
// coordinator with one in-process loopback peer, and polls each job
// until it is terminal. Each result must equal a single-node run of
// the same spec made during set-up, arena_nodes excepted.
type serviceWorkload struct {
	inputs int // distinct inputs: the schedule's round length
	sched  []serviceInput
	want   map[string][]byte // normalized single-node result per key

	coord, peer       *jobsvc.Service
	coordSrv, peerSrv *http.Server
	url               string
	client            *http.Client
	transport         *http.Transport

	rejected  atomic.Int64
	snap0     cluster.Snapshot
	rejected0 int64
}

func setupService(o options) (workload, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	var inputs []serviceInput
	for _, d := range drivers.Corpus() {
		for _, ct := range completeTargets {
			inputs = append(inputs, serviceInput{
				key:  fmt.Sprintf("service/%s/ct%d", d.Name, ct),
				spec: jobsvc.JobSpec{Driver: d.Name, CompleteTarget: ct, Seed: engineSeed, Workers: workers()},
			})
		}
	}
	corpus := drivers.Corpus()
	for _, i := range rng.Perm(len(corpus))[:serviceFuzzJobs] {
		seed := rng.Int63n(1 << 31)
		inputs = append(inputs, serviceInput{
			key: fmt.Sprintf("service/fuzz/%s/seed%d", corpus[i].Name, seed),
			spec: jobsvc.JobSpec{
				Fuzz:    &jobsvc.FuzzSpec{Device: corpus[i].Name, Budget: serviceFuzzBudget},
				Seed:    seed,
				Workers: workers(),
			},
		})
	}

	w := &serviceWorkload{inputs: len(inputs), sched: shuffledCycles(o.Seed, inputs), want: map[string][]byte{}}
	if err := w.reference(inputs); err != nil {
		return nil, err
	}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	// Warm up: each fuzz job once, so the coordinator's and the peer's
	// harness caches are filled before timing, as in a resident daemon.
	for _, in := range inputs {
		if in.spec.Fuzz == nil {
			continue
		}
		if _, err := w.runJob(nil, in); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", in.key, err)
		}
	}
	return w, nil
}

// reference runs every distinct spec once on a single-node service.
func (w *serviceWorkload) reference(inputs []serviceInput) error {
	ref := jobsvc.New(jobsvc.Config{Pool: 1})
	defer drain(ref)
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout*time.Duration(len(inputs)))
	defer cancel()
	for _, in := range inputs {
		j, err := ref.Submit(in.spec)
		if err != nil {
			return fmt.Errorf("reference %s: %w", in.key, err)
		}
		j, err = ref.Wait(ctx, j.ID)
		if err != nil {
			return fmt.Errorf("reference %s: %w", in.key, err)
		}
		if j.Status != jobsvc.StatusSucceeded {
			return fmt.Errorf("reference %s: %s: %s", in.key, j.Status, j.Error)
		}
		w.want[in.key] = normalize(j.Result)
	}
	return nil
}

// normalize encodes a result for comparison. arena_nodes counts the
// expressions interned on the node that ran the job, which differs
// between a coordinator and a single node by design.
func normalize(r *jobsvc.JobResult) []byte {
	if r == nil {
		return nil
	}
	c := *r
	c.ArenaNodes = 0
	b, _ := json.Marshal(c) // JobResult always encodes
	return b
}

func (w *serviceWorkload) start() error {
	w.peer = jobsvc.New(jobsvc.Config{Pool: 1, ShardPool: workers()})
	peerURL, peerSrv, err := serve(w.peer.Handler())
	if err != nil {
		drain(w.peer)
		w.peer = nil
		return err
	}
	w.peerSrv = peerSrv
	w.coord = jobsvc.New(jobsvc.Config{
		Pool:        workers(),
		Coordinator: true,
		Cluster:     cluster.Config{Peers: []string{peerURL}},
	})
	w.url, w.coordSrv, err = serve(w.coord.Handler())
	if err != nil {
		return err
	}
	// One connection per client goroutine.
	w.transport = &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	w.client = &http.Client{Transport: w.transport, Timeout: serviceTimeout}
	return nil
}

// serve runs h on a loopback port until the returned server is shut
// down.
func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns ErrServerClosed on Shutdown
	return "http://" + ln.Addr().String(), srv, nil
}

// drain stops a service on a set-up path that already has its result
// or its error to report.
func drain(s *jobsvc.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	_ = s.Drain(ctx) // only times out if a job hangs, which set-up reports itself
}

func (w *serviceWorkload) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	var errs []error
	if w.coord != nil {
		errs = append(errs, w.coord.Drain(ctx))
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if w.coordSrv != nil {
		errs = append(errs, w.coordSrv.Shutdown(ctx))
	}
	if w.peer != nil {
		errs = append(errs, w.peer.Drain(ctx))
	}
	if w.peerSrv != nil {
		errs = append(errs, w.peerSrv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

func (w *serviceWorkload) clients() int { return workers() }
func (w *serviceWorkload) round() int   { return w.inputs }

func (w *serviceWorkload) begin() {
	w.snap0, _ = w.coord.ClusterSnapshot()
	w.rejected0 = w.rejected.Load()
}

// end reads the coordinator's dispatcher counters as deltas over the
// phase. They depend on scheduling, so they are reported, never
// asserted.
func (w *serviceWorkload) end(ly *layers) {
	snap, _ := w.coord.ClusterSnapshot()
	var attempts, retries, overloads, successes int64
	for _, p := range snap.Peers {
		attempts += p.Attempts
		retries += p.Retries
		overloads += p.Overloads
		successes += p.Successes
	}
	for _, p := range w.snap0.Peers {
		attempts -= p.Attempts
		retries -= p.Retries
		overloads -= p.Overloads
		successes -= p.Successes
	}
	localPulls := snap.LocalPulls - w.snap0.LocalPulls
	ly.set("cluster.attempts", float64(attempts))
	ly.set("cluster.retries", float64(retries))
	ly.set("cluster.overloads", float64(overloads))
	ly.set("cluster.fallbacks", float64(snap.Fallbacks-w.snap0.Fallbacks))
	ly.set("cluster.steals", float64(snap.Steals-w.snap0.Steals))
	ly.set("cluster.local_pulls", float64(localPulls))
	if n := successes + localPulls; n > 0 {
		ly.set("cluster.remote_share", float64(successes)/float64(n))
	}
	if n := snap.ShardWallCount - w.snap0.ShardWallCount; n > 0 {
		ly.set("cluster.shard_wall_ms_mean", 1000*(snap.ShardWallSum-w.snap0.ShardWallSum)/float64(n))
	}
	if n := snap.QueueWaitCount - w.snap0.QueueWaitCount; n > 0 {
		ly.set("cluster.queue_wait_ms_mean", 1000*(snap.QueueWaitSum-w.snap0.QueueWaitSum)/float64(n))
	}
	ly.set("jobsvc.rejected", float64(w.rejected.Load()-w.rejected0))
}

func (w *serviceWorkload) op(c *opCtx) opResult {
	in := w.sched[c.Index%len(w.sched)]
	r := opResult{Key: in.key}
	t0 := time.Now()
	j, err := w.runJob(c, in)
	t1 := time.Now()
	r.Latency = t1.Sub(t0)
	c.span("op.service", "", t0, t1)
	if err != nil {
		r.Err = fmt.Errorf("%s: %w", in.key, err)
		return r
	}
	if j.Started != nil && j.Finished != nil {
		c.span("jobsvc.queue", "http.submit", j.Submitted, *j.Started)
		c.span("jobsvc.run", "http.submit", *j.Started, *j.Finished)
		c.ly.sample("jobsvc.queue_wait_ms_p50", ms(j.Started.Sub(j.Submitted)))
		c.ly.sample("jobsvc.run_ms_p50", ms(j.Finished.Sub(*j.Started)))
		c.ly.sample("jobsvc.client_overhead_ms_p50", ms(r.Latency-j.Finished.Sub(j.Submitted)))
	}
	res := j.Result
	if res == nil {
		r.Err = fmt.Errorf("%s: succeeded without a result", in.key)
		return r
	}
	if in.spec.Fuzz != nil {
		r.Exact = map[string]int64{
			"difffuzz.coverage_keys": int64(res.FuzzCoverageKeys),
			"difffuzz.corpus_size":   int64(res.FuzzCorpus),
		}
		c.ly.add("difffuzz.unexplored", float64(res.FuzzUnexplored))
		c.ly.add("difffuzz.divergences", float64(len(res.Divergences)))
	} else {
		r.Exact = map[string]int64{
			"solver.queries":          res.SolverQueries,
			"solver.cache_hits":       res.SolverCacheHits,
			"solver.model_hits":       res.SolverModelHits,
			"symexec.executed_blocks": res.ExecutedBlocks,
			"symexec.forks":           res.Forks,
			"symexec.killed_loops":    res.KilledLoops,
			"ir.translated_blocks":    res.TranslatedBlocks,
			"trace.covered_blocks":    int64(res.CoveredBlocks),
			"cfg.funcs":               int64(res.Funcs),
		}
		c.ly.add("symexec.shards_effective", float64(res.ShardsEffective))
		c.ly.add("symexec.shard_collapses", float64(res.ShardCollapses))
		c.ly.add("expr.arena_nodes", float64(res.ArenaNodes))
	}
	addExact(c.ly, r.Exact)
	if got := normalize(res); !bytes.Equal(got, w.want[in.key]) {
		r.Err = fmt.Errorf("%s: result differs from the single-node run\n got: %s\nwant: %s", in.key, got, w.want[in.key])
	}
	return r
}

// runJob submits one job and polls it until it is terminal. A
// refused submission (429) is counted and fails the operation; so
// does any status but succeeded.
func (w *serviceWorkload) runJob(c *opCtx, in serviceInput) (jobsvc.Job, error) {
	body, err := json.Marshal(in.spec)
	if err != nil {
		return jobsvc.Job{}, err
	}
	t0 := time.Now()
	var j jobsvc.Job
	resp, err := w.client.Post(w.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	err = decodeResponse(resp, http.StatusAccepted, &j)
	t1 := time.Now()
	if c != nil {
		c.span("http.submit", "op.service", t0, t1)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		w.rejected.Add(1)
	}
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	for !j.Status.Terminal() {
		time.Sleep(pollInterval)
		resp, err := w.client.Get(w.url + "/jobs/" + j.ID)
		if err != nil {
			return j, fmt.Errorf("poll: %w", err)
		}
		if err := decodeResponse(resp, http.StatusOK, &j); err != nil {
			return j, fmt.Errorf("poll: %w", err)
		}
	}
	if c != nil {
		c.span("http.poll", "op.service", t1, time.Now())
	}
	if j.Status != jobsvc.StatusSucceeded {
		return j, fmt.Errorf("job %s: %s: %s", j.ID, j.Status, j.Error)
	}
	return j, nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
