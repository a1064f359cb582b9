package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// options are one benchmark invocation's settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	// Setups overrides the workload's set-up repetitions when positive.
	Setups int
	OutDir string
	// PlantOp, when non-negative, is the index of a fuzz operation
	// that runs on a harness with the difffuzz send-port bug planted:
	// the self-test that a wrong synthesized driver becomes a failed
	// operation. -1 (the command line's only value) plants nothing.
	PlantOp int
}

// A workload is built by its setup function (timed as setup_s) and
// then driven in a closed loop by clients() goroutines, each sending
// its next operation only after the previous one returned.
type workload interface {
	clients() int
	// round is the number of distinct inputs; the schedule runs them
	// in rounds, each a fresh seeded permutation.
	round() int
	// op runs schedule entry c.Index and checks its output.
	op(c *opCtx) opResult
	// begin and end bracket a measured phase; end adds the per-layer
	// metrics only readable for a whole phase (set-up timings,
	// service counters).
	begin()
	end(ly *layers)
	close() error
}

// workloadDef is a workload's set-up function and how often a run
// repeats the set-up; setup_s is the median. The service's set-up
// runs every job spec once and repeats least, so a run stays short.
type workloadDef struct {
	setup  func(options) (workload, error)
	setups int
}

var workloads = map[string]workloadDef{
	"reverse": {setupReverse, 5},
	"fuzz":    {setupFuzz, 5},
	"service": {setupService, 3},
}

// opCtx is what one operation may use: its schedule index, the
// per-layer accumulator and, in the traced phase, the span recorder.
type opCtx struct {
	Index int
	ly    *layers
	tr    *tracer
}

// span records a span of this operation; a no-op when untraced.
func (c *opCtx) span(name, parent string, start, end time.Time) {
	c.tr.record(name, parent, c.Index, start, end)
}

// check runs a correctness check and returns its wall and CPU time.
// Its CPU profile samples are labelled, so module self time counts
// operations only. Single-client workloads only: process CPU is not
// per goroutine.
func (c *opCtx) check(f func()) (wall, cpu time.Duration) {
	cpu0 := processCPU()
	t0 := time.Now()
	if c.tr == nil {
		f()
	} else {
		pprof.Do(context.Background(), pprof.Labels(checkLabel, "1"), func(context.Context) { f() })
	}
	return time.Since(t0), processCPU() - cpu0
}

// opResult is one operation's outcome.
type opResult struct {
	// Index is the schedule entry; Traced marks the traced phase.
	Index  int
	Traced bool
	// Key names the operation's input; Exact holds its deterministic
	// counters, which must repeat exactly for every operation with
	// the same key.
	Key   string
	Exact map[string]int64
	// Latency is the timed part of the operation. Check and CheckCPU
	// are the wall and CPU time of its correctness check, which a
	// single-client phase excludes from its clock.
	Latency  time.Duration
	Check    time.Duration
	CheckCPU time.Duration
	// Err is non-nil when the operation failed, was refused or
	// produced a wrong output.
	Err error
}

// phase is one measured run of the closed loop.
type phase struct {
	ops     []opResult
	active  time.Duration // wall time minus excluded check time
	cpu     time.Duration // process CPU minus excluded check CPU
	failed  int
	profile []byte
	rt      runtimeSample // change over the phase
}

// runPhase drives the closed loop until the phase has been active
// for limit, or, when count > 0, over schedule entries 0..count-1.
func runPhase(w workload, limit time.Duration, count int, ly *layers, tr *tracer) (*phase, error) {
	n, round := w.clients(), w.round()
	var (
		next    atomic.Int64
		mu      sync.Mutex
		ops     []opResult
		excl    time.Duration
		exclCPU time.Duration
	)
	w.begin()
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	activeSince := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Since(start) - excl
	}
	// stopAt is the first schedule index not run. A timed phase sets
	// it once its time is up, rounded up to whole rounds so that every
	// phase runs the same balanced input mix.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	if count > 0 {
		stopAt.Store(int64(count))
	}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if count <= 0 && activeSince() >= limit {
					end := (i + int64(round) - 1) / int64(round) * int64(round)
					stopAt.CompareAndSwap(math.MaxInt64, end)
				}
				if i >= stopAt.Load() {
					return
				}
				r := w.op(&opCtx{Index: int(i), ly: ly, tr: tr})
				r.Index = int(i)
				mu.Lock()
				ops = append(ops, r)
				if n == 1 {
					excl += r.Check
					exclCPU += r.CheckCPU
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph := &phase{
		active: time.Since(start) - excl,
		cpu:    processCPU() - cpu0 - exclCPU,
		rt:     readRuntime().since(rt0),
	}
	if tr != nil {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	w.end(ly)
	sort.Slice(ops, func(a, b int) bool { return ops[a].Index < ops[b].Index })
	ph.ops = ops
	for _, r := range ops {
		if r.Err != nil {
			ph.failed++
		}
	}
	return ph, nil
}

// latencyMS is the phase's per-operation latency at quantile q, in
// milliseconds. A failed operation counts as slower than any
// successful one; if the quantile lands on one, the phase's whole
// active time is reported, the longest any operation could have taken.
func (ph *phase) latencyMS(q float64) float64 {
	lat := make([]float64, 0, len(ph.ops))
	for _, r := range ph.ops {
		if r.Err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(r.Latency))
	}
	v := quantile(lat, q)
	if math.IsInf(v, 1) {
		return ms(ph.active)
	}
	return v
}

// quantile interpolates linearly between the closest ranks.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssWindow is the length of the windows whose resident-set peaks
// peak_rss_mb takes the median of. A single peak over the whole phase
// is the extreme of many collector cycles, so it varies far more from
// run to run than the median window peak does.
const rssWindow = 500 * time.Millisecond

// rssSampler records the resident-set peak of each window of a phase
// by reading and then resetting the kernel's high-water mark.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

// startRSSSampler returns the garbage that set-up left to the
// operating system and starts sampling. It returns nil where the
// high-water mark cannot be reset.
func startRSSSampler() *rssSampler {
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		return nil
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeakRSS()
			case <-s.stop:
				s.peaks = append(s.peaks, peakRSSMB())
				return
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the median window peak in MiB.
// Without a sampler it is the process's lifetime peak.
func (s *rssSampler) stopMB() float64 {
	if s == nil {
		return peakRSSMB()
	}
	close(s.stop)
	<-s.done
	return median(s.peaks)
}

// resetPeakRSS restarts the resident-set high-water mark and reports
// whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS, from VmHWM in /proc/self/status. Where that is
// unavailable it falls back to getrusage's lifetime peak.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workers is the parallelism every workload uses for exploration,
// fuzz executors and service clients: one per available CPU.
func workers() int {
	return runtime.GOMAXPROCS(0)
}

// layers accumulates per-layer observations of a phase: sums of
// per-operation values and samples for percentiles.
type layers struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
}

func newLayers() *layers {
	return &layers{sums: map[string]float64{}, samples: map[string][]float64{}}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

func (l *layers) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// set overrides a phase-level value.
func (l *layers) set(name string, v float64) {
	l.mu.Lock()
	l.sums[name] = v
	l.mu.Unlock()
}
