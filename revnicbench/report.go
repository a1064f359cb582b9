package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// environment identifies where and on what a report was measured.
// Reports whose environments differ are not comparable.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
}

// report is everything one invocation measured. The result line is
// its last line of output; the rest is written to the output
// directory.
type report struct {
	Env       environment `json:"env"`
	Result    result      `json:"result"`
	ErrorRate float64     `json:"error_rate"`
	// SetupS are the individual set-up times; setup_s is their median.
	SetupS []float64 `json:"setup_s"`
	// Samples is the number of operations each latency percentile is
	// taken over.
	Samples int `json:"samples"`
	// PeakRSSWindowed is false where the resident-set high-water mark
	// could not be reset, so peak_rss_mb is the lifetime peak,
	// set-up included.
	PeakRSSWindowed bool `json:"peak_rss_windowed"`
	// Failures and ExactDiverged explain Correct = false.
	Failures      []string `json:"failures,omitempty"`
	ExactDiverged []string `json:"exact_diverged,omitempty"`
	// Ops lists every operation in schedule order.
	Ops []opSummary `json:"ops"`

	tr *tracer
}

func run(o options) (_ *report, err error) {
	def, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.Workload, workloadNames())
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Env: collectEnv(o)}

	setups := def.setups
	if o.Setups > 0 {
		setups = o.Setups
	}
	var w workload
	for k := 0; k < setups; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", k, err)
			}
		}
		t0 := time.Now()
		if w, err = def.setup(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	limit := time.Duration(o.Seconds * float64(time.Second))
	var all []opResult
	if !o.Traced {
		rss := startRSSSampler()
		rep.PeakRSSWindowed = rss != nil
		ph, err := runPhase(w, limit, 0, newLayers(), nil)
		peak := rss.stopMB()
		if err != nil {
			return nil, err
		}
		all = ph.ops
		rep.Result.Metrics = endToEnd(ph, median(rep.SetupS), peak)
		rep.Samples = len(ph.ops)
	} else {
		// The traced phase replays exactly the operations an untraced
		// phase of half the run just completed, so the tracing
		// overhead compares identical inputs.
		base, err := runPhase(w, limit/2, 0, newLayers(), nil)
		if err != nil {
			return nil, err
		}
		ly, tr := newLayers(), newTracer()
		ph, err := runPhase(w, 0, len(base.ops), ly, tr)
		if err != nil {
			return nil, err
		}
		all = append(base.ops, ph.ops...)
		for i := len(base.ops); i < len(all); i++ {
			all[i].Traced = true
		}
		if rep.Result.Metrics, err = perLayer(ph, base, ly, tr); err != nil {
			return nil, err
		}
		rep.Samples = len(ph.ops)
		rep.tr = tr
	}
	if len(all) == 0 {
		return nil, errors.New("no operation completed")
	}

	for _, r := range all {
		if r.Err != nil {
			rep.Failures = append(rep.Failures, r.Err.Error())
		}
		rep.Ops = append(rep.Ops, opSummary{Index: r.Index, Key: r.Key, MS: ms(r.Latency), Failed: r.Err != nil, Traced: r.Traced})
	}
	diverged, err := checkExact(all, exactTablePath(o.OutDir, o.Workload, rep.Env.SourceSHA256))
	if err != nil {
		return nil, err
	}
	rep.ExactDiverged = diverged
	rep.Result.Attempted = len(all)
	rep.Result.Failed = len(rep.Failures)
	rep.ErrorRate = float64(rep.Result.Failed) / float64(rep.Result.Attempted)
	rep.Result.Correct = rep.Result.Failed == 0 && len(diverged) == 0
	return rep, nil
}

// opSummary is one operation in the written report.
type opSummary struct {
	Index  int     `json:"index"`
	Key    string  `json:"key"`
	MS     float64 `json:"ms"`
	Failed bool    `json:"failed,omitempty"`
	Traced bool    `json:"traced,omitempty"`
}

// write stores the full report, and in a traced run the spans, in the
// output directory.
func (rep *report) write(o options) error {
	trace := 0
	if o.Traced {
		trace = 1
	}
	base := filepath.Join(o.OutDir, fmt.Sprintf("%s-seed%d-trace%d", o.Workload, o.Seed, trace))
	if err := writeJSONAtomic(base+".json", rep); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if rep.tr != nil {
		if err := rep.tr.writeJSONL(base + "-spans.jsonl"); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// printSummary writes the human-readable lines that precede the
// result line.
func (rep *report) printSummary(w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d %s %s/%s cpu=%q commit=%s source=%.12s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.CPUModel, e.Commit, e.SourceSHA256)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g traced=%v setups=%v samples=%d attempted=%d failed=%d error_rate=%.4f\n",
		e.Workload, e.Seed, e.Seconds, e.Traced, rep.SetupS, rep.Samples, rep.Result.Attempted, rep.Result.Failed, rep.ErrorRate)
	for i, f := range rep.Failures {
		if i == 5 {
			fmt.Fprintf(w, "failed: ... %d more\n", len(rep.Failures)-i)
			break
		}
		fmt.Fprintf(w, "failed: %s\n", f)
	}
	if len(rep.ExactDiverged) == 0 {
		fmt.Fprintln(w, "exact counters: all repeat exactly")
	}
	for _, d := range rep.ExactDiverged {
		fmt.Fprintf(w, "exact counter diverged: %s\n", d)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric: %-32s %v\n", n, rep.Result.Metrics[n])
	}
}

func collectEnv(o options) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Workload:   o.Workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Traced:     o.Traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	e.SourceSHA256 = sourceDigest()
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the revnic
// module the benchmark was built from, located by walking up from the
// working directory. It identifies the code under test where no
// version-control revision is available.
func sourceDigest() string {
	root, err := moduleRoot()
	if err != nil {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module revnic" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("revnic module not found")
		}
		dir = parent
	}
}
