package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

// completeTargets are the exploration depths operations draw from:
// each step up raises the solver's query count by about half, and the
// deepest ops make up the latency tail.
var completeTargets = []int{16, 32, 64}

// engineSeed fixes the exploration's own random choices; the workload
// seed only draws which inputs run in which order.
const engineSeed = 1

// shuffledCycles repeats inputs in seed-shuffled rounds, each round a
// fresh permutation. Every round runs every input once, so a run's
// input mix is balanced whatever the seed and however many operations
// fit in it.
func shuffledCycles[T any](seed int64, inputs []T) []T {
	const length = 1 << 12 // far more operations than any run completes
	rng := rand.New(rand.NewSource(seed))
	out := make([]T, 0, length+len(inputs))
	for len(out) < length {
		for _, i := range rng.Perm(len(inputs)) {
			out = append(out, inputs[i])
		}
	}
	return out
}

type reverseInput struct {
	info   *drivers.Info
	target int
}

// reverseWorkload reverse engineers one corpus driver per operation:
// exploration, CFG reconstruction, synthesis and template
// instantiation for every OS, with the equivalence check against the
// original binary as its correctness gate.
type reverseWorkload struct {
	inputs int // distinct inputs: the schedule's round length
	sched  []reverseInput
}

func setupReverse(o options) (workload, error) {
	var inputs []reverseInput
	for _, d := range drivers.Corpus() {
		for _, ct := range completeTargets {
			inputs = append(inputs, reverseInput{d, ct})
		}
	}
	// Warm up: one shallow run per driver, so the first timed
	// operation does not pay for one-time lazy initialization.
	for _, d := range drivers.Corpus() {
		if _, err := symexec.New(d.Program, engineConfig(d, completeTargets[0])).Explore(); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", d.Name, err)
		}
	}
	return &reverseWorkload{inputs: len(inputs), sched: shuffledCycles(o.Seed, inputs)}, nil
}

func engineConfig(d *drivers.Info, target int) symexec.Config {
	return symexec.Config{
		Shell:          core.ShellConfig(d),
		Arena:          expr.NewArena(),
		Workers:        workers(),
		CompleteTarget: target,
		Seed:           engineSeed,
	}
}

func (w *reverseWorkload) clients() int   { return 1 }
func (w *reverseWorkload) round() int     { return w.inputs }
func (w *reverseWorkload) begin()         {}
func (w *reverseWorkload) end(ly *layers) {}
func (w *reverseWorkload) close() error   { return nil }

func (w *reverseWorkload) op(c *opCtx) opResult {
	in := w.sched[c.Index%len(w.sched)]
	d := in.info
	r := opResult{Key: fmt.Sprintf("reverse/%s/ct%d", d.Name, in.target)}

	ecfg := engineConfig(d, in.target)
	t0 := time.Now()
	res, err := symexec.New(d.Program, ecfg).Explore()
	t1 := time.Now()
	c.span("symexec.explore", "op.reverse", t0, t1)
	if err != nil {
		r.Latency, r.Err = t1.Sub(t0), err
		c.span("op.reverse", "", t0, t1)
		return r
	}
	g := cfg.Build(res.Collector)
	t2 := time.Now()
	c.span("cfg.build", "op.reverse", t1, t2)
	out := synth.Generate(g, synth.Options{DriverName: d.Name})
	t3 := time.Now()
	c.span("synth.generate", "op.reverse", t2, t3)
	var templateBytes int
	for _, osKind := range template.AllOS {
		templateBytes += len(template.Instantiate(osKind, d.Name, out))
	}
	t4 := time.Now()
	c.span("template.instantiate", "op.reverse", t3, t4)
	c.span("op.reverse", "", t0, t4)
	r.Latency = t4.Sub(t0)

	var eq *core.FeatureReport
	var eqErr error
	rev := &core.Reversed{Name: d.Name, Exploration: res, Graph: g, Synth: out}
	r.Check, r.CheckCPU = c.check(func() {
		eq, eqErr = core.CheckEquivalence(d, rev, template.Windows)
	})
	switch {
	case eqErr != nil:
		r.Err = fmt.Errorf("%s: equivalence check: %w", r.Key, eqErr)
	case !eq.IOTraceEqual:
		r.Err = fmt.Errorf("%s: I/O trace differs from the original binary: %s", r.Key, eq.FirstDivergence)
	case templateBytes == 0:
		r.Err = errors.New(r.Key + ": empty template output")
	}

	r.Exact = map[string]int64{
		"solver.queries":          res.SolverQueries,
		"solver.cache_hits":       res.SolverCacheHits,
		"solver.model_hits":       res.SolverModelHits,
		"symexec.executed_blocks": res.ExecutedBlocks,
		"symexec.forks":           res.ForkCount,
		"symexec.killed_loops":    res.KilledLoops,
		"ir.translated_blocks":    res.TranslatedBlocks,
		"trace.covered_blocks":    int64(res.Collector.CoveredBlocks()),
		"cfg.funcs":               int64(len(g.Funcs)),
		"cfg.blocks":              int64(len(g.Blocks)),
		"synth.code_bytes":        int64(len(out.Code)),
	}
	addExact(c.ly, r.Exact)
	c.ly.add("symexec.shards_effective", float64(res.ShardsEffective))
	c.ly.add("symexec.shard_collapses", float64(res.ShardCollapses))
	c.ly.add("expr.arena_nodes", float64(ecfg.Arena.InternedNodes()))
	c.ly.add("symexec.explore_ms", ms(t1.Sub(t0)))
	c.ly.add("cfg.build_ms", ms(t2.Sub(t1)))
	c.ly.add("synth.generate_ms", ms(t3.Sub(t2)))
	c.ly.add("template.instantiate_ms", ms(t4.Sub(t3)))
	c.ly.add("core.equivalence_ms", ms(r.Check))
	return r
}

// addExact adds an operation's deterministic counters to the
// per-layer sums.
func addExact(ly *layers, exact map[string]int64) {
	for k, v := range exact {
		ly.add(k, float64(v))
	}
}
