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

// layers are the repository modules that CPU time is charged to, plus
// gc (the background mark and sweep workers) and other (samples with no
// hivempi/internal frame, e.g. this benchmark's own code).
var layers = []string{
	"adapt", "chaos", "cluster", "core", "datampi", "dfs", "exec", "hadoop",
	"hibench", "hive", "imstore", "kvio", "metrics", "mpi", "mrengine", "obs",
	"perfmodel", "refexec", "storage", "tpch", "trace", "types", "vec",
	"gc", "other",
}

const modulePrefix = "hivempi/internal/"

// cpuProfile is a CPU profile split into layers.
type cpuProfile struct {
	samples      int64
	nanos        int64
	layerSamples map[string]int64
	layerNanos   map[string]int64
}

// layerOf charges a stack (innermost frame first) to the innermost
// hivempi/internal/<module> frame, so standard-library work such as
// JSON decoding or syscalls is charged to its caller. Stacks run by
// the garbage collector's background workers go to gc.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		mod := fn[len(modulePrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, l := range layers {
			if l == mod {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// parseCPUProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and charges every sample to a layer. It fails unless
// the layers' samples and CPU time sum exactly to the profile's totals.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs       []string
		valueTypes [][2]int64 // sample types: (type, unit) string indexes
		samples    [][]byte
		funcName   = map[uint64]int64{} // function id -> name string index
		locFuncs   = map[uint64][]uint64{}
		locations  [][]byte
	)
	err = fields(raw, 0, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := fields(data, 0, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2:
			samples = append(samples, data)
		case 4:
			locations = append(locations, data)
		case 5: // function: id, name
			var id uint64
			var name int64
			err := fields(data, 0, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, loc := range locations {
		var id uint64
		var fns []uint64
		err := fields(loc, 0, func(n int, v uint64, data []byte) error {
			switch n {
			case 1:
				id = v
			case 4: // line: function_id; inlined callees come first
				return fields(data, 0, func(n int, v uint64, _ []byte) error {
					if n == 1 {
						fns = append(fns, v)
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		locFuncs[id] = fns
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 || len(valueTypes) < 2 {
		return nil, errors.New("cpu profile: no samples/cpu value types")
	}
	p := &cpuProfile{layerSamples: map[string]int64{}, layerNanos: map[string]int64{}}
	for _, s := range samples {
		var locs []uint64
		var vals []int64
		// location_id (1) and value (2) are packed.
		err := fields(s, 1<<1|1<<2, func(n int, v uint64, _ []byte) error {
			switch n {
			case 1:
				locs = append(locs, v)
			case 2:
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) != len(valueTypes) {
			return nil, fmt.Errorf("cpu profile: sample has %d values, want %d", len(vals), len(valueTypes))
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		layer := layerOf(stack)
		p.layerSamples[layer] += vals[0]
		p.layerNanos[layer] += vals[cpuIdx]
		p.samples += vals[0]
		p.nanos += vals[cpuIdx]
	}
	var sumS, sumN int64
	for _, l := range layers {
		sumS += p.layerSamples[l]
		sumN += p.layerNanos[l]
	}
	if sumS != p.samples || sumN != p.nanos {
		return nil, fmt.Errorf("cpu profile: layers hold %d samples/%dns, profile %d/%dns",
			sumS, sumN, p.samples, p.nanos)
	}
	return p, nil
}

// fields walks one protobuf message, calling fn per field with its
// number and its varint value (wire types 0, 1 and 5) or its bytes
// (wire type 2). A length-delimited field whose number has its bit set
// in packed is a packed repeated varint, unpacked into one call per
// element.
func fields(b []byte, packed uint64, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("cpu profile: truncated fixed field")
			}
			v := uint64(binary.LittleEndian.Uint32(b))
			if w == 8 {
				v = binary.LittleEndian.Uint64(b)
			}
			b = b[w:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if num < 64 && packed&(1<<num) != 0 {
				for len(data) > 0 {
					v, n := binary.Uvarint(data)
					if n <= 0 {
						return errors.New("cpu profile: bad packed varint")
					}
					data = data[n:]
					if err := fn(num, v, nil); err != nil {
						return err
					}
				}
				continue
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cpu profile: wire type %d", key&7)
		}
	}
	return nil
}
