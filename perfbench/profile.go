package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Profile-to-layer attribution. A CPU sample belongs to the nearest
// frame, walking from the leaf towards the root, that lies in a
// precinct/internal/<module> package. Frames of the standard library
// and of the geo module go to their caller (geo is arithmetic the
// calling layer asked for). A sample with no such frame goes to
// "runtime": scheduler, garbage collector and the benchmark itself.

const internalPrefix = "precinct/internal/"

// layerOf attributes one stack, given leaf first as function names.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		mod := fn[len(internalPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if mod == "geo" {
			continue
		}
		return mod
	}
	return "runtime"
}

// A sample is one profile stack, leaf first, with its weight.
type sample struct {
	stack  []string
	weight int64
}

// cpuShares attributes the samples and returns each layer's share of
// the total weight, keyed by the names in cpuLayers. Modules outside
// that list count as "other". The shares sum to 1.
func cpuShares(samples []sample) (map[string]float64, error) {
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	weights := make(map[string]int64, len(cpuLayers))
	var total int64
	for _, s := range samples {
		l := layerOf(s.stack)
		if !known[l] {
			l = "other"
		}
		weights[l] += s.weight
		total += s.weight
	}
	if total <= 0 {
		return nil, errors.New("cpu profile recorded no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	var sum float64
	for _, l := range cpuLayers {
		shares[l] = float64(weights[l]) / float64(total)
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("cpu shares sum to %v, not 1", sum)
	}
	return shares, nil
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, returning its samples weighted by the last sample value (CPU
// nanoseconds for a CPU profile). Only the fields attribution needs are
// read: samples, locations with their (inlined) lines, functions and
// the string table.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // sample
			var s rawSample
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				var perr error
				switch n {
				case 1:
					s.locs, perr = appendPacked(s.locs, w, v, b)
				case 2:
					var u []uint64
					u, perr = appendPacked(nil, w, v, b)
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return perr
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // line
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case num == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var stack []string
		for _, l := range s.locs {
			fns, ok := locs[l]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", l)
			}
			for _, f := range fns {
				idx, ok := funcs[f]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d references unknown function %d", l, f)
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, sample{stack: stack, weight: s.values[len(s.values)-1]})
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, passing
// the field number, wire type, and either the varint value or the
// length-delimited bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, encoded either packed
// (one length-delimited run) or as a single varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
