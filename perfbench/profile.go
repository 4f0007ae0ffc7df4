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

// modulePath is the import path of the program under test.
const modulePath = "github.com/severifast/severifast"

// packageOf names the repo package a profiled function belongs to:
// "severifast" for the root facade, the directory name for an internal
// package, "perfbench" for the benchmark's own code. ok is false for
// functions outside the repo (the standard library and the runtime).
func packageOf(fn string) (pkg string, ok bool) {
	rest, found := strings.CutPrefix(fn, modulePath)
	if !found {
		return "", false
	}
	if strings.HasPrefix(rest, ".") {
		return "severifast", true
	}
	rest = strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest, rest != ""
}

// cpuSelfSeconds parses a CPU profile as runtime/pprof writes it
// (gzipped profile.proto) and returns CPU seconds per package. A sample
// is charged to the innermost frame that belongs to the repo, so
// standard-library crypto and memmove called from a repo package count
// for that package; samples with no repo frame count for "runtime".
func cpuSelfSeconds(data []byte) (map[string]float64, error) {
	if len(data) == 0 {
		return map[string]float64{}, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The location's first line is the innermost (inlined) function.
	locPkg := make(map[uint64][]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fid := range fns {
			name := ""
			if si := p.functions[fid]; si >= 0 && si < int64(len(p.strings)) {
				name = p.strings[si]
			}
			locPkg[id] = append(locPkg[id], name)
		}
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		bucket := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locPkg[loc] {
				if pkg, ok := packageOf(fn); ok {
					bucket = pkg
					break frames
				}
			}
		}
		if p.valueIndex < len(s.values) {
			out[bucket] += float64(s.values[p.valueIndex]) / 1e9
		}
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples    []profSample
	locations  map[uint64][]uint64 // location id -> function ids, innermost first
	functions  map[uint64]int64    // function id -> name string index
	strings    []string
	valueIndex int // index of the cpu/nanoseconds value
	types      []int64
}

// parseProfile decodes the fields of profile.proto a CPU profile needs:
// sample (2), location (4), function (5), string_table (6) and
// sample_type (1).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1: // ValueType{type=1, unit=2}
			return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.types = append(p.types, int64(v))
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s profSample
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, _ int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
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
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
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
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIndex = len(p.types) - 1
	for i, t := range p.types {
		if t >= 0 && t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}

// appendVarints handles a repeated scalar field in either encoding:
// one varint (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
