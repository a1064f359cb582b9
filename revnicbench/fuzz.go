package main

import (
	"fmt"
	"math/rand"
	"time"

	"revnic/internal/difffuzz"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

const (
	// fuzzBudget is the schedule count of one campaign, so one
	// operation takes about as long as a mid-depth reverse.
	fuzzBudget = 48
	// fuzzSeedsPerDevice campaign seeds are drawn per device; each
	// (device, seed) input recurs in every round of the schedule.
	fuzzSeedsPerDevice = 3
	// plantDevice is fuzzed with a planted bug in the self-test: its
	// send path performs the port writes the send-port plant shifts.
	plantDevice = "RTL8029"
)

type fuzzInput struct {
	device string
	seed   int64
}

// fuzzWorkload runs one differential fuzzing campaign per operation
// on harnesses built during set-up. Operations never reach the solver:
// exploration happens only when a harness is built.
type fuzzWorkload struct {
	inputs    int // distinct inputs: the schedule's round length
	sched     []fuzzInput
	harnesses map[string]*difffuzz.Harness
	harnessMS float64 // mean harness build time of this set-up
	plantOp   int
	planted   *difffuzz.Harness
}

func setupFuzz(o options) (workload, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	w := &fuzzWorkload{harnesses: map[string]*difffuzz.Harness{}, plantOp: o.PlantOp}
	var inputs []fuzzInput
	var total time.Duration
	for _, d := range drivers.Corpus() {
		for k := 0; k < fuzzSeedsPerDevice; k++ {
			inputs = append(inputs, fuzzInput{d.Name, rng.Int63n(1 << 31)})
		}
		t0 := time.Now()
		h, err := difffuzz.NewHarness(d.Name, template.Windows, "")
		if err != nil {
			return nil, fmt.Errorf("harness %s: %w", d.Name, err)
		}
		total += time.Since(t0)
		w.harnesses[d.Name] = h
	}
	w.harnessMS = ms(total) / float64(len(w.harnesses))
	w.inputs, w.sched = len(inputs), shuffledCycles(o.Seed, inputs)
	if o.PlantOp >= 0 {
		h, err := difffuzz.NewHarness(plantDevice, template.Windows, "send-port")
		if err != nil {
			return nil, fmt.Errorf("planted harness: %w", err)
		}
		w.planted = h
	}
	return w, nil
}

func (w *fuzzWorkload) clients() int { return 1 }
func (w *fuzzWorkload) round() int   { return w.inputs }
func (w *fuzzWorkload) begin()       {}
func (w *fuzzWorkload) close() error { return nil }

func (w *fuzzWorkload) end(ly *layers) {
	ly.set("difffuzz.harness_ms", w.harnessMS)
}

func (w *fuzzWorkload) op(c *opCtx) opResult {
	in := w.sched[c.Index%len(w.sched)]
	h := w.harnesses[in.device]
	r := opResult{Key: fmt.Sprintf("fuzz/%s/seed%d", in.device, in.seed)}
	if c.Index == w.plantOp {
		in.device, h = plantDevice, w.planted
		r.Key = fmt.Sprintf("fuzz/%s/seed%d/send-port", in.device, in.seed)
	}
	t0 := time.Now()
	rep, err := difffuzz.Fuzz(h, difffuzz.Config{
		Device:  in.device,
		Seed:    in.seed,
		Budget:  fuzzBudget,
		Workers: workers(),
	})
	t1 := time.Now()
	c.span("difffuzz.fuzz", "op.fuzz", t0, t1)
	c.span("op.fuzz", "", t0, t1)
	r.Latency = t1.Sub(t0)
	switch {
	case err != nil:
		r.Err = fmt.Errorf("%s: %w", r.Key, err)
		return r
	case len(rep.Divergences) > 0:
		r.Err = fmt.Errorf("%s: %d divergences, first: %s", r.Key, len(rep.Divergences), rep.Divergences[0].String())
	case len(rep.Errors) > 0:
		r.Err = fmt.Errorf("%s: %d harness errors, first: %s", r.Key, len(rep.Errors), rep.Errors[0])
	case rep.Schedules != fuzzBudget:
		r.Err = fmt.Errorf("%s: ran %d of %d schedules", r.Key, rep.Schedules, fuzzBudget)
	}
	r.Exact = map[string]int64{
		"difffuzz.coverage_keys": int64(rep.CoverageKeys),
		"difffuzz.corpus_size":   int64(rep.CorpusSize),
	}
	addExact(c.ly, r.Exact)
	c.ly.add("difffuzz.unexplored", float64(rep.Unexplored))
	c.ly.add("difffuzz.divergences", float64(len(rep.Divergences)))
	c.ly.add("difffuzz.schedules", float64(rep.Schedules))
	c.ly.add("difffuzz.fuzz_s", t1.Sub(t0).Seconds())
	return r
}
