package main

import "fmt"

// metricDef names a reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json; the self-test checks
// that the two agree. A perOp metric is a sum over the traced phase
// reported as a mean per operation, so that a faster program, which
// runs more operations in the same time, does not read higher.
type metricDef struct {
	name, unit string
	perOp      bool
}

// endToEndDefs are reported by an untraced run (--trace 0).
var endToEndDefs = []metricDef{
	{"setup_s", "s", false},
	{"op_ms_p50", "ms", false},
	{"op_ms_p90", "ms", false},
	{"ops_per_s", "1/s", false},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MB", false},
	{"success_pct", "%", false},
}

// perLayerDefs are reported by a traced run (--trace 1). A layer the
// workload does not reach reads 0. "Per op" means averaged over every
// operation of the traced phase.
var perLayerDefs = func() []metricDef {
	const perOp, phase = true, false
	defs := []metricDef{
		{"symexec.explore_ms", "ms", perOp},
		{"symexec.executed_blocks", "count/op", perOp},
		{"symexec.forks", "count/op", perOp},
		{"symexec.killed_loops", "count/op", perOp},
		{"symexec.shards_effective", "count/op", perOp},
		{"symexec.shard_collapses", "count/op", perOp},
		{"trace.covered_blocks", "count/op", perOp},
		{"ir.translated_blocks", "count/op", perOp},
		{"solver.queries", "count/op", perOp},
		{"solver.cache_hits", "count/op", perOp},
		{"solver.model_hits", "count/op", perOp},
		{"solver.reuse_ratio", "ratio", phase},
	}
	for _, m := range profileModules {
		defs = append(defs, metricDef{m + ".self_ms_per_op", "ms", phase})
	}
	return append(defs, []metricDef{
		{"expr.arena_nodes", "count/op", perOp},
		{"runtime.alloc_mb_per_op", "MB", phase},
		{"runtime.gc_cpu_share", "ratio", phase},
		{"cfg.build_ms", "ms", perOp},
		{"cfg.funcs", "count/op", perOp},
		{"cfg.blocks", "count/op", perOp},
		{"synth.generate_ms", "ms", perOp},
		{"synth.code_bytes", "bytes/op", perOp},
		{"template.instantiate_ms", "ms", perOp},
		{"core.equivalence_ms", "ms", perOp},
		{"difffuzz.harness_ms", "ms", phase},
		{"difffuzz.schedules_per_s", "1/s", phase},
		{"difffuzz.coverage_keys", "count/op", perOp},
		{"difffuzz.corpus_size", "count/op", perOp},
		{"difffuzz.unexplored", "count/op", perOp},
		{"difffuzz.divergences", "count/op", perOp},
		{"jobsvc.queue_wait_ms_p50", "ms", phase},
		{"jobsvc.run_ms_p50", "ms", phase},
		{"jobsvc.client_overhead_ms_p50", "ms", phase},
		{"jobsvc.rejected", "count/op", perOp},
		{"cluster.shard_wall_ms_mean", "ms", phase},
		{"cluster.queue_wait_ms_mean", "ms", phase},
		{"cluster.attempts", "count/op", perOp},
		{"cluster.retries", "count/op", perOp},
		{"cluster.overloads", "count/op", perOp},
		{"cluster.fallbacks", "count/op", perOp},
		{"cluster.steals", "count/op", perOp},
		{"cluster.local_pulls", "count/op", perOp},
		{"cluster.remote_share", "ratio", phase},
		{"trace.op_ms_p50", "ms", phase},
		{"trace.overhead_pct", "%", phase},
		{"trace.span_cover_pct", "%", phase},
	}...)
}()

// endToEnd computes the untraced run's metrics.
func endToEnd(ph *phase, setupS, rssMB float64) map[string]metric {
	n := len(ph.ops)
	ok := n - ph.failed
	vals := map[string]float64{
		"setup_s":     setupS,
		"op_ms_p50":   ph.latencyMS(0.5),
		"op_ms_p90":   ph.latencyMS(0.9),
		"ops_per_s":   float64(ok) / ph.active.Seconds(),
		"peak_rss_mb": rssMB,
		"success_pct": 100 * float64(ok) / float64(n),
	}
	if n > 0 {
		vals["cpu_ms_per_op"] = ms(ph.cpu) / float64(n)
	}
	return emit(endToEndDefs, vals)
}

// perLayer computes the traced run's metrics from the traced phase,
// its accumulator and spans, and the untraced phase that ran the same
// operations first.
func perLayer(ph, untraced *phase, ly *layers, tr *tracer) (map[string]metric, error) {
	n := float64(len(ph.ops))
	vals := map[string]float64{}
	for name, v := range ly.sums {
		vals[name] = v
	}
	for _, d := range perLayerDefs {
		if d.perOp {
			vals[d.name] /= n
		}
	}
	for name, s := range ly.samples {
		vals[name] = median(s)
	}
	if q := ly.sums["solver.queries"]; q > 0 {
		vals["solver.reuse_ratio"] = (ly.sums["solver.cache_hits"] + ly.sums["solver.model_hits"]) / q
	}
	if s := ly.sums["difffuzz.fuzz_s"]; s > 0 {
		vals["difffuzz.schedules_per_s"] = ly.sums["difffuzz.schedules"] / s
	}
	self, err := selfTimeByModule(ph.profile)
	if err != nil {
		return nil, err
	}
	for _, m := range profileModules {
		vals[m+".self_ms_per_op"] = self[m] / n
	}
	vals["runtime.alloc_mb_per_op"] = ph.rt.allocBytes / (1 << 20) / n
	vals["runtime.gc_cpu_share"] = ph.rt.gcShare()
	traced, base := ph.latencyMS(0.5), untraced.latencyMS(0.5)
	vals["trace.op_ms_p50"] = traced
	if base > 0 {
		vals["trace.overhead_pct"] = 100 * (traced/base - 1)
	}
	vals["trace.span_cover_pct"] = tr.childCoverPct()
	return emit(perLayerDefs, vals), nil
}

// emit returns every defined metric, 0 where nothing was measured.
func emit(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func (m metric) String() string { return fmt.Sprintf("%.4g %s", m.Value, m.Unit) }
