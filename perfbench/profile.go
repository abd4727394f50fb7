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

// profileGroups maps a report name to the function-name prefixes whose CPU
// it charges. A sample is charged to the innermost frame that matches any
// group, so a layer's share includes the runtime work (allocation, GC
// assists) it caused, like a span's self time. matching is the decoder's
// MWPM back end.
var profileGroups = []struct {
	name     string
	prefixes []string
}{
	{"core", []string{"repro/internal/core."}},
	{"circuit", []string{"repro/internal/circuit."}},
	{"batch", []string{"repro/internal/sim/batch."}},
	{"decoder", []string{"repro/internal/decoder.", "repro/internal/matching."}},
	{"experiment", []string{"repro/internal/experiment."}},
	{"store", []string{"repro/internal/store."}},
	{"service", []string{"repro/internal/service.", "repro/internal/campaign."}},
	{"http_json", []string{"net/http.", "encoding/json."}},
}

// cpuShares parses a gzipped pprof CPU profile and returns each group's
// share of the sampled CPU time, plus the total sampled nanoseconds.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcGroup := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx >= uint64(len(p.strs)) {
			return nil, 0, errors.New("profile: function name out of range")
		}
		name := p.strs[nameIdx]
	groups:
		for _, g := range profileGroups {
			for _, pre := range g.prefixes {
				if strings.HasPrefix(name, pre) {
					funcGroup[id] = g.name
					break groups
				}
			}
		}
	}
	byGroup := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		total += s.value
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined frame first
				if g, ok := funcGroup[fn]; ok {
					byGroup[g] += s.value
					break frames
				}
			}
		}
	}
	shares := make(map[string]float64, len(profileGroups))
	for _, g := range profileGroups {
		if total > 0 {
			shares[g.name] = float64(byGroup[g.name]) / float64(total)
		} else {
			shares[g.name] = 0
		}
	}
	return shares, total, nil
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	strs     []string
	funcName map[uint64]uint64   // function id -> string index of its name
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the protobuf fields of profile.proto used here:
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: make(map[uint64]uint64), locFuncs: make(map[uint64][]uint64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var vals []uint64
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		var dst *[]uint64
		switch num {
		case 1:
			dst = &s.locs
		case 2:
			dst = &vals
		default:
			return nil
		}
		if wire == 0 {
			*dst = append(*dst, v)
			return nil
		}
		for len(data) > 0 { // packed repeated varints
			x, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad packed varint")
			}
			*dst = append(*dst, x)
			data = data[n:]
		}
		return nil
	})
	if len(vals) > 0 {
		s.value = int64(vals[len(vals)-1])
	}
	return s, err
}

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, plus its varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
