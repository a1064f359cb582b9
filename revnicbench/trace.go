package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// checkLabel marks CPU profile samples taken inside a correctness
// check; module self time counts only the operations themselves.
const checkLabel = "revnicbench-check"

// span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent names the span that caused it ("" for
// the operation span itself). Times are nanoseconds since the traced
// phase began.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the traced phase's spans in memory; they are written
// out once the run ends. A nil tracer records nothing.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) record(name, parent string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Parent: parent, Op: op,
		StartNS: start.Sub(t.start).Nanoseconds(), EndNS: end.Sub(t.start).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// childCoverPct is the share of operation-span time covered by the
// operation's direct child spans, in percent: how much of each
// operation the layer timings account for.
func (t *tracer) childCoverPct() float64 {
	var opNS, childNS int64
	for _, s := range t.spans {
		switch {
		case s.Parent == "":
			opNS += s.EndNS - s.StartNS
		case strings.HasPrefix(s.Parent, "op."):
			childNS += s.EndNS - s.StartNS
		}
	}
	if opNS == 0 {
		return 0
	}
	return 100 * float64(childNS) / float64(opNS)
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is the slice of runtime/metrics the per-layer report
// reads: cumulative values, or their change over a phase.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: val(ss[0]),
		gcCPU:      val(ss[1]),
		totalCPU:   val(ss[2]),
		idleCPU:    val(ss[3]),
	}
}

func (r runtimeSample) since(r0 runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: r.allocBytes - r0.allocBytes,
		gcCPU:      r.gcCPU - r0.gcCPU,
		totalCPU:   r.totalCPU - r0.totalCPU,
		idleCPU:    r.idleCPU - r0.idleCPU,
	}
}

// gcShare is the garbage collector's share of the CPU time the
// process used (not of the CPU time available to it).
func (d runtimeSample) gcShare() float64 {
	used := d.totalCPU - d.idleCPU
	if used <= 0 {
		return 0
	}
	return d.gcCPU / used
}
