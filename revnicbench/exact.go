package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// exactTable maps an operation's input key to its deterministic
// counters. The counters are a pure function of the input and the
// code, so every operation with the same key, in this run or any
// earlier run of the same build, must report them exactly.
type exactTable map[string]map[string]int64

// exactTablePath is where runs of the build whose sources hash to
// digest keep their exact counters for a workload. A change to the
// code gets a table of its own, so a change that moves a counter on
// purpose is never compared with its parent. It is "" when the
// digest is unknown: such a run compares within itself only.
func exactTablePath(outDir, workload, digest string) string {
	if len(digest) < 12 || digest == "unknown" {
		return ""
	}
	return filepath.Join(outDir, fmt.Sprintf("exact-%s-%s.json", workload, digest[:12]))
}

// checkExact compares each operation's counters against the first
// operation with the same key in this run and against the table that
// earlier runs of the same build left at path, then records any new
// keys there. An empty path skips the table. It returns one line per
// counter that diverged.
func checkExact(ops []opResult, path string) ([]string, error) {
	prior := exactTable{}
	if path != "" {
		b, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			return nil, fmt.Errorf("exact counters: %w", err)
		default:
			if err := json.Unmarshal(b, &prior); err != nil {
				return nil, fmt.Errorf("exact counters: %s: %w", path, err)
			}
		}
	}
	run := exactTable{}
	var diverged []string
	compare := func(key, where string, want, got map[string]int64) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		for n := range want {
			if _, ok := got[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			w, inWant := want[n]
			g, inGot := got[n]
			if w != g || inWant != inGot {
				diverged = append(diverged, fmt.Sprintf("%s %s: %d, %s %d", key, n, g, where, w))
			}
		}
	}
	for _, r := range ops {
		if r.Exact == nil {
			continue
		}
		if first, ok := run[r.Key]; ok {
			compare(r.Key, "earlier in this run", first, r.Exact)
			continue
		}
		run[r.Key] = r.Exact
		if old, ok := prior[r.Key]; ok {
			compare(r.Key, "in an earlier run", old, r.Exact)
		}
	}
	changed := false
	for k, v := range run {
		if _, ok := prior[k]; !ok {
			prior[k] = v
			changed = true
		}
	}
	if !changed || path == "" {
		return diverged, nil
	}
	return diverged, writeJSONAtomic(path, prior)
}

// writeJSONAtomic replaces path with v's JSON encoding, so a reader
// never sees a partly written file.
func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
