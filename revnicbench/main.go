// Command revnicbench is the repository's end-to-end benchmark. It
// drives one workload (reverse, fuzz or service) from a single
// process, checks every operation's output, and prints one JSON
// result line: the end-to-end metrics of an untraced run, or with
// --trace 1 the per-layer metrics of a traced run.
//
// Usage, from the repository root:
//
//	bash revnicbench/run.sh --workload reverse --seed 1 --seconds 20 --trace 0
//
// See revnicbench/README.md for the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "workload seed: draws the operation inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase in seconds, rounded up to whole input rounds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "revnicbench"), "directory for reports, spans and the exact-counter table")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	opts := options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Traced:   *trace == 1,
		OutDir:   *out,
		PlantOp:  -1,
	}
	rep, err := run(opts)
	if err != nil {
		fatalf("%v", err)
	}
	if err := rep.write(opts); err != nil {
		fatalf("%v", err)
	}
	rep.printSummary(os.Stdout)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "revnicbench: "+format+"\n", args...)
	os.Exit(1)
}
