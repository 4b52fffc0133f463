package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one CPU profile sample record: its call stack (leaf
// first, with inlined frames expanded innermost first), how many samples
// it aggregates, their weight and its labels.
type profSample struct {
	stack  []string
	count  int64
	weight int64
	labels map[string]string
}

// parseProfile decodes a (possibly gzipped) pprof protobuf profile. It
// understands only the fields the attribution needs: samples, locations,
// functions, the string table and string labels. A record counts its
// first value and weighs its last (samples and CPU nanoseconds in a CPU
// profile).
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name index
		strs    []string
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPackedU64(s.locs, w, v, b)
				case 2:
					for _, x := range appendPackedU64(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.count = s.values[0]
			ps.weight = s.values[len(s.values)-1]
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value and length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
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

// appendPackedU64 appends a repeated varint field in either encoding.
func appendPackedU64(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// modulePath is the Go module whose packages are the layers. The
// benchmark's own packages are excluded: replay glue is not a layer.
const (
	modulePath = "rhythm"
	benchPath  = "rhythm/perfbench"
)

// Buckets for samples with no frame from the module.
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketOther = "other"
)

// packageOf returns the package path of a Go function symbol, e.g.
// "rhythm/internal/simt" for "rhythm/internal/simt.(*Thread).Store".
func packageOf(fn string) string {
	// Only the part before any receiver or type parameters can hold the
	// package path; type arguments may themselves contain slashes.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a module package path to its layer name: the package
// directly under internal/ (so internal/obs/health counts as obs), the
// last path element elsewhere, and the module name for the root package.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, modulePath+"/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		return layer
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		return pkg[i+1:]
	}
	return pkg
}

func inModule(pkg string) bool {
	return (pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/")) &&
		pkg != benchPath && !strings.HasPrefix(pkg, benchPath+"/")
}

var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcAssistAlloc", "runtime.markroot", "runtime.scanobject", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.sysmon", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.mstart",
		"runtime.netpoll", "runtime.stopm", "runtime.startm",
	}
)

// attribute charges a sample to a layer. The rule: the innermost frame
// that belongs to the module decides, so memmove called from
// simt.(*Thread).StoreStrided counts as simt and a write syscall made by
// the server's connection loop counts as rhythm. A sample with no module
// frame is garbage collection if any frame is a collector entry point,
// scheduling if any frame is a scheduler entry point, and other
// otherwise.
func attribute(stack []string) string {
	for _, fn := range stack {
		if pkg := packageOf(fn); inModule(pkg) {
			return layerOf(pkg)
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return bucketGC
			}
		}
	}
	for _, fn := range stack {
		for _, s := range schedFrames {
			if fn == s {
				return bucketSched
			}
		}
	}
	return bucketOther
}

// shares is a CPU attribution: weight per layer, the total weight and
// the number of samples behind it.
type shares struct {
	by      map[string]int64
	total   int64
	samples int64
}

// attributeSamples sums sample weights per layer, keeping only samples
// that carry every label in want.
func attributeSamples(ss []profSample, want map[string]string) shares {
	sh := shares{by: map[string]int64{}}
outer:
	for _, s := range ss {
		for k, v := range want {
			if s.labels[k] != v {
				continue outer
			}
		}
		sh.by[attribute(s.stack)] += s.weight
		sh.total += s.weight
		sh.samples += s.count
	}
	return sh
}

func (s shares) share(layer string) float64 {
	return ratio(float64(s.by[layer]), float64(s.total))
}
