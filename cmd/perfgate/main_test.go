package main

import (
	"strings"
	"testing"
)

func gridOf(cells ...cell) report { return report{Bench: "revbench-grid", Cells: cells} }

// noted reports whether out holds a skip line for cell key k giving
// the reason why.
func noted(out, k, why string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "skip "+k+" ") && strings.HasSuffix(line, why) {
			return true
		}
	}
	return false
}

func TestCompareNotesBaselineOnlyCells(t *testing.T) {
	base := gridOf(
		cell{Solver: "incremental", Workers: 1, MeanMS: 100},
		cell{Solver: "no-incremental", Workers: 1, MeanMS: 170},
		cell{Solver: "incremental", Workers: 2, Scenario: "straggler-static", MeanMS: 1200},
	)
	fresh := gridOf(cell{Solver: "incremental", Workers: 1, MeanMS: 101})
	var out strings.Builder
	matched, regressions, _, err := compare(base, fresh, 0.25, &out)
	if err != nil || matched != 1 || regressions != 0 {
		t.Fatalf("compare = %d matched, %d regressions, %v; want 1, 0, nil\n%s", matched, regressions, err, out.String())
	}
	if noted(out.String(), "incremental/coverage/w1/f0/", ")") {
		t.Errorf("matched cell noted as skipped:\n%s", out.String())
	}
	for _, k := range []string{"no-incremental/coverage/w1/f0/", "incremental/coverage/w2/f0/straggler-static"} {
		if !noted(out.String(), k, "(not in fresh)") {
			t.Errorf("no baseline-only note for %s:\n%s", k, out.String())
		}
	}
}

func TestCompareNotesFreshOnlyCells(t *testing.T) {
	base := gridOf(cell{Solver: "incremental", Workers: 1, MeanMS: 100})
	fresh := gridOf(
		cell{Solver: "incremental", Workers: 1, MeanMS: 100},
		cell{Solver: "incremental", Workers: 4, Searcher: "dfs", MeanMS: 600},
	)
	var out strings.Builder
	matched, _, _, err := compare(base, fresh, 0.25, &out)
	if err != nil || matched != 1 {
		t.Fatalf("compare = %d matched, %v; want 1, nil", matched, err)
	}
	if !noted(out.String(), "incremental/dfs/w4/f0/", "(not in baseline)") {
		t.Errorf("no fresh-only note:\n%s", out.String())
	}
}

func TestCompareCountsRegression(t *testing.T) {
	// An empty searcher is the coverage default, so it matches an
	// explicit "coverage" cell.
	base := gridOf(
		cell{Solver: "incremental", Workers: 1, MeanMS: 100},
		cell{Solver: "incremental", Workers: 4, MeanMS: 100},
	)
	fresh := gridOf(
		cell{Solver: "incremental", Searcher: "coverage", Workers: 1, MeanMS: 126},
		cell{Solver: "incremental", Workers: 4, MeanMS: 124},
	)
	var out strings.Builder
	matched, regressions, _, err := compare(base, fresh, 0.25, &out)
	if err != nil || matched != 2 || regressions != 1 {
		t.Fatalf("compare = %d matched, %d regressions, %v; want 2, 1, nil\n%s", matched, regressions, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression not flagged:\n%s", out.String())
	}
}

func TestCompareNoMatchedCellsIsError(t *testing.T) {
	base := gridOf(cell{Solver: "no-incremental", Workers: 1, MeanMS: 170})
	fresh := gridOf(cell{Solver: "incremental", Workers: 1, MeanMS: 100})
	var out strings.Builder
	if _, _, _, err := compare(base, fresh, 0.25, &out); err == nil {
		t.Fatalf("zero matched cells must be an error:\n%s", out.String())
	}
}

func n(v int64) *int64 { return &v }

func TestCompareGatesCountersExactly(t *testing.T) {
	base := gridOf(
		cell{Solver: "incremental", Workers: 1, MeanMS: 100, SolverQueries: n(2921), SATDecisions: n(5000)},
		cell{Solver: "incremental", Workers: 4, MeanMS: 100, SolverQueries: n(2921), SATConflicts: n(40)},
		// A baseline cell without counters gates timing only.
		cell{Solver: "incremental", Workers: 4, ShardFactor: 1, MeanMS: 100},
	)
	fresh := gridOf(
		// Fewer decisions is a counter change too: the baseline must be
		// re-recorded along with it.
		cell{Solver: "incremental", Workers: 1, MeanMS: 90, SolverQueries: n(2921), SATDecisions: n(4999)},
		cell{Solver: "incremental", Workers: 4, MeanMS: 100, SolverQueries: n(2921)},
		cell{Solver: "incremental", Workers: 4, ShardFactor: 1, MeanMS: 100, SolverQueries: n(1)},
	)
	var out strings.Builder
	matched, regressions, mismatches, err := compare(base, fresh, 0.25, &out)
	if err != nil || matched != 3 || regressions != 0 || mismatches != 2 {
		t.Fatalf("compare = %d matched, %d regressions, %d mismatches, %v; want 3, 0, 2, nil\n%s",
			matched, regressions, mismatches, err, out.String())
	}
	for _, want := range []string{
		"sat_decisions base 5000 fresh 4999  COUNTER MISMATCH",
		"sat_conflicts base 40 fresh missing  COUNTER MISMATCH",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q line:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "MISMATCH") != 2 {
		t.Errorf("want exactly two mismatch lines:\n%s", out.String())
	}
}
