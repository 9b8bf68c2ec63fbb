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

// cpuPackages are the buckets of the cpu_share.<package> metrics: the
// repository's packages by their last path element, the Go runtime,
// the benchmark itself and everything else.
var cpuPackages = []string{
	"analysis", "cache", "sweep", "check", "core", "inline", "traceselect",
	"funclayout", "globallayout", "experiments", "interp", "ir", "layout",
	"memtrace", "obs", "paging", "profile", "search", "smith", "texttable",
	"workload", "xrand", "runtime", "perfbench", "other",
}

// packageBucket maps a fully qualified function name from a Go CPU
// profile to its cpu_share bucket.
func packageBucket(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "impact/internal/"):
		last := pkg[strings.LastIndex(pkg, "/")+1:]
		for _, p := range cpuPackages {
			if p == last {
				return p
			}
		}
	}
	return "other"
}

// leafShares decodes a gzipped pprof CPU profile and returns, per
// cpuPackages bucket, the share of samples whose leaf frame lies in
// that package, plus the number of samples. Only the few protobuf
// fields needed are decoded: Profile.sample (2), .location (4),
// .function (5), .string_table (6); Sample.location_id (1), .value
// (2); Location.id (1), .line (4); Line.function_id (1);
// Function.id (1), .name (2).
func leafShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var ids, vals []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					ids = appendVarints(ids, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(ids) > 0 && len(vals) > 0 {
				s.leaf, s.count = ids[0], int64(vals[0])
				samples = append(samples, s)
			}
		case 4:
			var id, fn uint64
			first := true
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && first:
					first = false
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[packageBucket(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= float64(total)
		}
	}
	return shares, total, nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// fields walks the top-level fields of one protobuf message, calling
// visit with the field number and either the varint value (wire type
// 0) or the payload (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, visit func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := visit(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: a single
// varint (payload nil) or a packed run of varints.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
