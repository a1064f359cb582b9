// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_9.json) and fails when any matching cell's mean
// wall-clock regressed beyond the threshold.
//
// Cells match on (solver, searcher, workers, shard_factor, scenario) —
// an absent searcher means "coverage", so baselines written before the
// searcher axis existed still match fresh coverage cells. Cells present
// in only one report are skipped with a note naming the side that lacks
// them, so a reduced CI grid (fewer repeats, no cluster scenario) gates
// only what it actually measured, and cells a retired mode left in the
// baseline are listed rather than dropped silently. Timing noise is
// expected — the default 25% threshold is meant to catch structural
// regressions (a scheduler serializing, a solver losing its cache), not
// jitter.
//
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_9.json -fresh fresh.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

type cell struct {
	Solver      string  `json:"solver"`
	Searcher    string  `json:"searcher,omitempty"`
	Workers     int     `json:"workers"`
	ShardFactor int     `json:"shard_factor,omitempty"`
	Scenario    string  `json:"scenario,omitempty"`
	MeanMS      float64 `json:"mean_ms"`
}

type report struct {
	Bench string `json:"bench"`
	Cells []cell `json:"cells"`
}

func key(c cell) string {
	// Reports written before the searcher axis existed omit the field;
	// they all ran the coverage-guided default, so normalize rather than
	// orphan every historical baseline cell.
	s := c.Searcher
	if s == "" {
		s = "coverage"
	}
	return fmt.Sprintf("%s/%s/w%d/f%d/%s", c.Solver, s, c.Workers, c.ShardFactor, c.Scenario)
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return r, fmt.Errorf("%s: no grid cells", path)
	}
	return r, nil
}

func main() {
	var (
		base      = flag.String("base", "BENCH_9.json", "committed baseline grid report")
		fresh     = flag.String("fresh", "", "freshly generated grid report to gate")
		threshold = flag.Float64("threshold", 0.25, "maximum allowed fractional mean regression per cell")
	)
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -fresh is required")
		os.Exit(2)
	}
	baseRep, err := load(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	freshRep, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	matched, regressions, err := compare(baseRep, freshRep, *threshold, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d cells regressed beyond %.0f%%\n",
			regressions, matched, 100**threshold)
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline\n", matched, 100**threshold)
}

// compare gates fresh against base, writing one line per cell to w: a
// verdict for every matched cell, and a skip note for every cell only
// one report holds. It returns how many cells matched and how many of
// those regressed by more than threshold; no matched cell at all is an
// error, since the gate would then check nothing.
func compare(base, fresh report, threshold float64, w io.Writer) (matched, regressions int, err error) {
	baseline := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		baseline[key(c)] = c
	}
	inFresh := make(map[string]bool, len(fresh.Cells))
	for _, f := range fresh.Cells {
		inFresh[key(f)] = true
		b, ok := baseline[key(f)]
		if !ok {
			fmt.Fprintf(w, "perfgate: skip %-40s (not in baseline)\n", key(f))
			continue
		}
		if b.MeanMS <= 0 || f.MeanMS <= 0 {
			fmt.Fprintf(w, "perfgate: skip %-40s (degenerate mean)\n", key(f))
			continue
		}
		matched++
		ratio := f.MeanMS/b.MeanMS - 1
		status := "ok"
		if ratio > threshold {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "perfgate: %-40s base %8.0f ms  fresh %8.0f ms  %+6.1f%%  %s\n",
			key(f), b.MeanMS, f.MeanMS, 100*ratio, status)
	}
	for _, b := range base.Cells {
		if !inFresh[key(b)] {
			fmt.Fprintf(w, "perfgate: skip %-40s (not in fresh)\n", key(b))
		}
	}
	if matched == 0 {
		return 0, 0, errors.New("no cells matched between reports")
	}
	return matched, regressions, nil
}
