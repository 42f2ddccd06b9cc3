package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// tracer records the traced run: host-time spans around each call the
// bench makes into a layer, kept in memory and written out at the end,
// plus a CPU profile of the whole process. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	spans []traceSpan
	open  []int
	prof  bytes.Buffer
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func startTracer() (*tracer, error) {
	t := &tracer{t0: time.Now()}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return t, nil
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, traceSpan{ID: id, Parent: parent, Name: name, Layer: layer, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// stop ends the profile, attributes its samples to s.Layers and writes
// the spans and the profile under dir.
func (t *tracer) stop(s *sample, dir string) error {
	pprof.StopCPUProfile()
	shares, err := attributeCPU(t.prof.Bytes())
	if err != nil {
		return err
	}
	for b, v := range shares {
		s.Layers["host.cpu."+b] = v
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", s.Workload, s.Seed))
	spans, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", t.prof.Bytes(), 0o644)
}

// repoPrefix is the import-path prefix of every function this
// repository defines.
const repoPrefix = "github.com/nowproject/now/"

// bucketOf maps a profiled function name to its host.cpu bucket, or ""
// for a function outside the repository.
func bucketOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench" // the bench's own package main
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		if strings.HasPrefix(fn, "github.com/nowproject/now.") {
			return "other" // the facade package itself
		}
		return ""
	}
	// Package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	pkg := rest
	if dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	name := pkg[strings.LastIndexByte(pkg, '/')+1:]
	if name == "perfbench" {
		return "bench" // package main as a test binary names it
	}
	for _, b := range cpuBuckets {
		if b == name && b != "other" && b != "bench" && b != "runtime" {
			return b
		}
	}
	return "other"
}

// attributeCPU charges every CPU-profile sample to the innermost repo
// frame on its stack (inlined frames included), or to "runtime" when
// the stack has none, and returns each bucket's share of the samples.
// Every bucket appears, so the shares always sum to 1.
func attributeCPU(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, smp := range p.samples {
		bucket := "runtime"
	stack:
		for _, loc := range smp.locs {
			for _, fn := range p.locFuncs[loc] {
				if b := bucketOf(p.funcNames[fn]); b != "" {
					bucket = b
					break stack
				}
			}
		}
		counts[bucket] += smp.count
		total += smp.count
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) with
// just enough of the wire format for sample stacks and function names.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]int64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var smp profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					smp.locs = appendUints(smp.locs, wire, v, b)
				case 2:
					if vals := appendUints(nil, wire, v, b); len(vals) > 0 && smp.count == 0 {
						smp.count = int64(vals[0])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, smp)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= 0 && idx < int64(len(strs)) {
			p.funcNames[id] = strs[idx]
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
