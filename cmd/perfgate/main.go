// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_10.json) and fails when any matching cell's mean
// wall-clock regressed beyond the threshold, or when any of its
// deterministic counters differs from the baseline at all.
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
// The counters (solver queries, cache hits, model hits, covered blocks,
// SAT decisions and conflicts) are fixed by each cell's schedule on any
// machine, so they are gated exactly: every counter the baseline cell
// records must read the same in the fresh cell. A change that moves
// them, for better or worse, must re-record the baseline in the same
// change. That check has teeth on hardware of any speed, where the
// timing check alone does not.
//
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_10.json -fresh fresh.json
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
	// The deterministic counters; nil when the report does not record
	// one.
	SolverQueries *int64 `json:"solver_queries,omitempty"`
	CacheHits     *int64 `json:"cache_hits,omitempty"`
	ModelHits     *int64 `json:"model_hits,omitempty"`
	CoveredBlocks *int64 `json:"covered_blocks,omitempty"`
	SATDecisions  *int64 `json:"sat_decisions,omitempty"`
	SATConflicts  *int64 `json:"sat_conflicts,omitempty"`
}

// counterNames names the deterministic counters, in counters() order.
var counterNames = [...]string{"solver_queries", "cache_hits", "model_hits", "covered_blocks", "sat_decisions", "sat_conflicts"}

func (c cell) counters() [len(counterNames)]*int64 {
	return [...]*int64{c.SolverQueries, c.CacheHits, c.ModelHits, c.CoveredBlocks, c.SATDecisions, c.SATConflicts}
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
		base      = flag.String("base", "BENCH_10.json", "committed baseline grid report")
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
	matched, regressions, mismatches, err := compare(baseRep, freshRep, *threshold, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	if regressions > 0 || mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d cells regressed beyond %.0f%%; %d cells' counters differ from the baseline\n",
			regressions, matched, 100**threshold, mismatches)
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline, counters equal\n", matched, 100**threshold)
}

// compare gates fresh against base, writing one line per cell to w: a
// verdict for every matched cell, a line for every counter that
// differs, and a skip note for every cell only one report holds. It
// returns how many cells matched, how many of those regressed by more
// than threshold, and how many have a counter that differs from the
// baseline; no matched cell at all is an error, since the gate would
// then check nothing.
func compare(base, fresh report, threshold float64, w io.Writer) (matched, regressions, mismatches int, err error) {
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
		if !sameCounters(b, f, w) {
			mismatches++
		}
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
		return 0, 0, 0, errors.New("no cells matched between reports")
	}
	return matched, regressions, mismatches, nil
}

// sameCounters reports whether fresh records every counter base does
// with the same value, writing a line to w for each that differs.
func sameCounters(base, fresh cell, w io.Writer) bool {
	same := true
	fc := fresh.counters()
	for i, b := range base.counters() {
		f := fc[i]
		if b == nil || f != nil && *f == *b {
			continue
		}
		same = false
		got := "missing"
		if f != nil {
			got = fmt.Sprint(*f)
		}
		fmt.Fprintf(w, "perfgate: %-40s %s base %d fresh %s  COUNTER MISMATCH\n", key(fresh), counterNames[i], *b, got)
	}
	return same
}
