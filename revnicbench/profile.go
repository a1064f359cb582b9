package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileModules are the layers CPU self time is attributed to: the
// repository's packages on the paths the workloads exercise, the Go
// runtime and the rest of the standard library. Samples whose leaf
// frame lies anywhere else (the remaining revnic packages and the
// benchmark itself) count as "other".
var profileModules = []string{
	"sat", "solver", "expr", "symexec", "ir", "vm", "guestos", "nic", "hw",
	"synthdrv", "difffuzz", "jobsvc", "cluster", "runtime", "stdlib", "other",
}

// moduleOf maps a fully qualified Go function name to its module.
func moduleOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "revnic/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range profileModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "" || pkg == "main" || strings.HasPrefix(pkg, "revnic"):
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// Standard-library import paths have no dot in their first
		// element; the repository has no other dependencies.
		return "stdlib"
	}
	return "other"
}

// selfTimeByModule decodes a gzipped pprof CPU profile and sums each
// sample's CPU time into the module of its leaf frame (the innermost
// inlined function at the sampled PC). Samples labelled with
// checkLabel are skipped.
func selfTimeByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpuIdx := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	checkKey := int64(-1)
	for i, str := range p.strings {
		if str == checkLabel {
			checkKey = int64(i)
		}
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if cpuIdx >= len(s.values) || len(s.locs) == 0 || s.hasLabel(checkKey) {
			continue
		}
		name := ""
		if loc, ok := p.locations[s.locs[0]]; ok && len(loc) > 0 {
			name = p.str(p.functions[loc[0]])
		}
		out[moduleOf(name)] += float64(s.values[cpuIdx]) / 1e6 // ns → ms
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strings     []string
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, leaf first
	functions   map[uint64]int64    // function id → name string index
}

type sample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, str) string indexes
}

// hasLabel reports whether the sample carries a label with the given
// key string index.
func (s sample) hasLabel(key int64) bool {
	for _, kv := range s.labels {
		if kv[0] == key {
			return true
		}
	}
	return false
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, d)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField walks one protobuf message. For varint fields f receives
// the value; for length-delimited fields, the bytes.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may be packed
// (data non-nil) or not (one value v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
