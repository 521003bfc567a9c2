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

// A CPU profile is rolled up into layer groups: each sample is charged to
// the innermost stack frame that belongs to a group, so runtime work (memmove,
// malloc, map access) lands on the layer that asked for it, while GC
// workers and assists form their own group. Frames of no group (the
// benchmark, stats helpers, runtime scheduling) are walked past; a sample
// with no group frame at all is "other".

// groupRules are matched in order against fully qualified function names.
var groupRules = []struct {
	group  string
	prefix string
}{
	{"runtime.gc", "runtime.gcBgMarkWorker"},
	{"runtime.gc", "runtime.gcAssistAlloc"},
	{"runtime.gc", "runtime.gcDrain"},
	{"runtime.gc", "runtime.bgsweep"},
	{"runtime.gc", "runtime.bgscavenge"},
	{"runtime.gc", "runtime.markroot"},
	{"runtime.gc", "runtime.gcStart"},
	{"netsim.heap", "repro/internal/netsim.(*Sim).push"},
	{"netsim.heap", "repro/internal/netsim.(*Sim).pop"},
	{"netsim.heap", "repro/internal/netsim.(*Sim).nextKey"},
	{"netsim.heap", "repro/internal/netsim.eventLess"},
	{"netsim.host", "repro/internal/netsim.(*Source)."},
	{"netsim.host", "repro/internal/netsim.(*Sink)."},
	{"netsim.mesh", "repro/internal/netsim.(*Mesh)."},
	{"netsim.link", "repro/internal/netsim."},
	{"verus", "repro/internal/verus."},
	{"spline", "repro/internal/spline."},
	{"tcp", "repro/internal/tcp."},
	{"sprout", "repro/internal/sprout."},
	{"faults", "repro/internal/faults."},
	{"obs", "repro/internal/obs."},
	{"cellular", "repro/internal/cellular."},
	{"cellular", "repro/internal/trace."},
	{"transport", "repro/internal/transport."},
	{"experiments", "repro/internal/experiments."},
}

// shareGroups are every group reported as cpu_share.<group>.
var shareGroups = []string{
	"netsim.host", "netsim.heap", "netsim.link", "netsim.mesh", "verus", "spline", "tcp",
	"sprout", "faults", "obs", "cellular", "transport", "experiments", "runtime.gc", "other",
}

func groupOf(fn string) string {
	for _, r := range groupRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.group
		}
	}
	return ""
}

// profileTally accumulates samples of one or more CPU profiles by group.
type profileTally struct {
	samples  map[string]int64
	total    int64
	periodNs int64
}

// add decodes a gzipped pprof CPU profile and charges its samples.
func (t *profileTally) add(gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if t.samples == nil {
		t.samples = map[string]int64{}
	}
	t.periodNs = p.period
	for _, s := range p.samples {
		g := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if gg := groupOf(p.funcNames[fn]); gg != "" {
					g = gg
					break walk
				}
			}
		}
		t.samples[g] += s.count
		t.total += s.count
	}
	return nil
}

// shares returns each group's percentage of all samples.
func (t *profileTally) shares() map[string]float64 {
	out := map[string]float64{}
	for _, g := range shareGroups {
		if t.total > 0 {
			out[g] = 100 * float64(t.samples[g]) / float64(t.total)
		} else {
			out[g] = 0
		}
	}
	return out
}

// seconds returns the CPU time sampled in group g.
func (t *profileTally) seconds(g string) float64 {
	return float64(t.samples[g]*t.periodNs) / 1e9
}

// profile is the subset of profile.proto a rollup needs.
type profile struct {
	samples []struct {
		locs  []uint64
		count int64
	}
	// locFuncs maps a location id to its function ids, innermost inlined
	// frame first.
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]string
	period    int64
}

// decodeProfile parses the gzipped protobuf runtime/pprof writes, reading
// only sample stacks and counts, locations, function names and the period.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					var err error
					locs, err = appendPacked(locs, v, b)
					return err
				case 2:
					var err error
					vals, err = appendPacked(vals, v, b)
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, struct {
				locs  []uint64
				count int64
			}{locs, int64(vals[0])})
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// gets the value; for length-delimited fields it gets the bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
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
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v) or
// packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
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
