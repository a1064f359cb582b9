package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricListsMatchBenchmarkFile pins the metric names and units
// the benchmark emits to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(declared) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		for i := 0; i < len(defs) && i < len(declared); i++ {
			if defs[i].name != declared[i].Name || defs[i].unit != declared[i].Unit {
				t.Errorf("%s[%d]: emits %s (%s), declared %s (%s)", kind, i,
					defs[i].name, defs[i].unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndDefs, f.EndToEnd)
	check("per_layer", perLayerDefs, f.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "reverse,fuzz,service"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
}

// TestShortRunEmitsEveryMetric runs every workload briefly, untraced
// and traced, and checks that each declared metric is emitted with its
// unit, that every operation passed its correctness gate and that the
// exact counters repeated.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	out := t.TempDir()
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{Workload: w.Name, Seed: 1, Seconds: 0.2, Traced: traced, Setups: 1, OutDir: out, PlantOp: -1}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d failures=%v diverged=%v",
					w.Name, traced, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed,
					rep.Failures, rep.ExactDiverged)
			}
			declared := f.EndToEnd
			if traced {
				declared = f.PerLayer
			}
			if len(rep.Result.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Result.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := rep.Result.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, d.Name, m.Value)
				}
			}
			if err := rep.write(o); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPlantedBugFailsOneOp is the gate's self-test: a fuzz operation
// run against a synthesized driver with the send-port bug planted must
// count as a failed operation, lower success_pct and make the run
// incorrect.
func TestPlantedBugFailsOneOp(t *testing.T) {
	rep, err := run(options{Workload: "fuzz", Seed: 1, Seconds: 0.2, Setups: 1, OutDir: t.TempDir(), PlantOp: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Failed != 1 || rep.Result.Correct {
		t.Fatalf("planted op: failed=%d correct=%v, want 1 failed op and an incorrect run", rep.Result.Failed, rep.Result.Correct)
	}
	if !strings.Contains(rep.Failures[0], "send-port") || !strings.Contains(rep.Failures[0], "divergence") {
		t.Errorf("failure does not name the planted divergence: %s", rep.Failures[0])
	}
	if got := rep.Result.Metrics["success_pct"].Value; got >= 100 {
		t.Errorf("success_pct = %v with a failed op", got)
	}
	if rep.ErrorRate <= 0 {
		t.Errorf("error_rate = %v with a failed op", rep.ErrorRate)
	}
}

// TestExactCountersReportDivergence checks that a counter which does
// not repeat, within a run or against an earlier run, is reported by
// key and name.
func TestExactCountersReportDivergence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exact.json")
	ops := []opResult{
		{Key: "a", Exact: map[string]int64{"solver.queries": 10}},
		{Key: "a", Exact: map[string]int64{"solver.queries": 10}},
		{Key: "b", Exact: map[string]int64{"solver.queries": 7}},
	}
	if d, err := checkExact(ops, path); err != nil || len(d) != 0 {
		t.Fatalf("repeating counters: diverged=%v err=%v", d, err)
	}
	ops[1].Exact = map[string]int64{"solver.queries": 11}
	ops[2].Exact = map[string]int64{"solver.queries": 8}
	d, err := checkExact(ops, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || !strings.Contains(d[0], "a solver.queries: 11, earlier in this run 10") ||
		!strings.Contains(d[1], "b solver.queries: 8, in an earlier run 7") {
		t.Errorf("diverged = %q", d)
	}
}

// TestExactTableKeyedByBuild checks that a table left behind by a
// build with other sources is never compared: a change that moves a
// counter on purpose must not fail against its parent's runs, while a
// rerun of the same build still must repeat exactly.
func TestExactTableKeyedByBuild(t *testing.T) {
	dir := t.TempDir()
	parent := exactTablePath(dir, "reverse", strings.Repeat("a", 64))
	change := exactTablePath(dir, "reverse", strings.Repeat("b", 64))
	if parent == change {
		t.Fatalf("builds with different sources share the table %s", parent)
	}
	if p := exactTablePath(dir, "reverse", "unknown"); p != "" {
		t.Errorf("unknown digest keeps a table at %s", p)
	}
	before := []opResult{{Key: "a", Exact: map[string]int64{"solver.queries": 10}}}
	after := []opResult{{Key: "a", Exact: map[string]int64{"solver.queries": 7}}}
	if d, err := checkExact(before, parent); err != nil || len(d) != 0 {
		t.Fatalf("parent: diverged=%v err=%v", d, err)
	}
	if d, err := checkExact(after, change); err != nil || len(d) != 0 {
		t.Errorf("change compared with the parent's table: diverged=%v err=%v", d, err)
	}
	if d, err := checkExact(after, ""); err != nil || len(d) != 0 {
		t.Errorf("no table: diverged=%v err=%v", d, err)
	}
	if d, err := checkExact(after, parent); err != nil || len(d) != 1 {
		t.Errorf("same build: diverged=%v err=%v, want one divergence", d, err)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"revnic/internal/sat.(*Solver).pickBranchVar": "sat",
		"revnic/internal/symexec.(*Engine).stepBlock": "symexec",
		"revnic/internal/cfg.Build":                   "other",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"encoding/json.(*decodeState).object":         "stdlib",
		"sync.(*Mutex).Lock":                          "stdlib",
		"main.runPhase.func2":                         "other",
		"":                                            "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %s, want %s", fn, got, want)
		}
	}
}
