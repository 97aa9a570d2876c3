package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// Column stream encodings for the ORC-like format. Each column of a
// stripe is encoded as:
//
//	[presence bitmap][values of the non-null rows]
//
// Integer-family columns (bool/int/date) use a run-length encoding:
// runs of >= minRunLength identical values become (marker, count, value)
// blocks, everything else zigzag varint literal blocks. Floats are
// fixed 8-byte little endian. Strings use dictionary encoding when the
// distinct ratio is low, otherwise direct (lengths + bytes).

const minRunLength = 4

const (
	blkRun     = 0x00
	blkLiteral = 0x01
)

const (
	strDirect = 0x00
	strDict   = 0x01
)

// appendPresence encodes the null bitmap (bit set = value present).
func appendPresence(buf []byte, col []types.Datum) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(col)))
	var cur byte
	for i, d := range col {
		if !d.IsNull() {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(col)%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

// decodePresence returns the presence flags and bytes consumed.
func decodePresence(buf []byte) ([]bool, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc presence count")
	}
	if n > uint64(len(buf)-used)*8 {
		return nil, 0, fmt.Errorf("storage: orc presence bitmap truncated")
	}
	nbytes := int((n + 7) / 8)
	out := make([]bool, n)
	for i := range out {
		out[i] = buf[used+i/8]&(1<<(i%8)) != 0
	}
	return out, used + nbytes, nil
}

// appendInts RLE-encodes the non-null integer values.
func appendInts(buf []byte, vals []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	i := 0
	for i < len(vals) {
		// Measure the run starting at i.
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if j-i >= minRunLength {
			buf = append(buf, blkRun)
			buf = binary.AppendUvarint(buf, uint64(j-i))
			buf = binary.AppendVarint(buf, vals[i])
			i = j
			continue
		}
		// Literal block: extend until the next long run begins.
		start := i
		for i < len(vals) {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			if j-i >= minRunLength {
				break
			}
			i = j
		}
		buf = append(buf, blkLiteral)
		buf = binary.AppendUvarint(buf, uint64(i-start))
		for k := start; k < i; k++ {
			buf = binary.AppendVarint(buf, vals[k])
		}
	}
	return buf
}

// decodeInts reverses appendInts, returning values and bytes consumed.
// A stream claiming more than limit values is rejected before any
// allocation (runs make the count independent of the stream's length).
func decodeInts(buf []byte, limit int) ([]int64, int, error) {
	total, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc int count")
	}
	if total > uint64(limit) {
		return nil, 0, fmt.Errorf("storage: orc int count %d exceeds %d rows", total, limit)
	}
	pos := used
	out := make([]int64, 0, total)
	for uint64(len(out)) < total {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("storage: orc int stream truncated")
		}
		kind := buf[pos]
		pos++
		count, n := binary.Uvarint(buf[pos:])
		if n <= 0 || count > total-uint64(len(out)) {
			return nil, 0, fmt.Errorf("storage: orc int block count")
		}
		pos += n
		switch kind {
		case blkRun:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("storage: orc run value")
			}
			pos += n
			for k := uint64(0); k < count; k++ {
				out = append(out, v)
			}
		case blkLiteral:
			for k := uint64(0); k < count; k++ {
				v, n := binary.Varint(buf[pos:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("storage: orc literal value")
				}
				pos += n
				out = append(out, v)
			}
		default:
			return nil, 0, fmt.Errorf("storage: orc int block kind %d", kind)
		}
	}
	return out, pos, nil
}

// appendFloats encodes non-null doubles as fixed 8-byte LE.
func appendFloats(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, f := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func decodeFloats(buf []byte) ([]float64, int, error) {
	total, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc float count")
	}
	if total > uint64(len(buf)-used)/8 {
		return nil, 0, fmt.Errorf("storage: orc float stream truncated")
	}
	need := used + int(total)*8
	out := make([]float64, total)
	for i := range out {
		bits := binary.LittleEndian.Uint64(buf[used+i*8:])
		out[i] = math.Float64frombits(bits)
	}
	return out, need, nil
}

// appendStrings chooses dictionary or direct encoding by distinct ratio.
func appendStrings(buf []byte, vals []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	dict := make(map[string]int, len(vals))
	order := make([]string, 0, 16)
	for _, s := range vals {
		if _, ok := dict[s]; !ok {
			dict[s] = len(order)
			order = append(order, s)
		}
	}
	if len(order)*2 <= len(vals) {
		buf = append(buf, strDict)
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for _, s := range order {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, s := range vals {
			buf = binary.AppendUvarint(buf, uint64(dict[s]))
		}
		return buf
	}
	buf = append(buf, strDirect)
	for _, s := range vals {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	for _, s := range vals {
		buf = append(buf, s...)
	}
	return buf
}

// decodeStrings reverses appendStrings; like decodeInts it rejects a
// stream claiming more than limit values.
func decodeStrings(buf []byte, limit int) ([]string, int, error) {
	total, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc string count")
	}
	if total > uint64(limit) {
		return nil, 0, fmt.Errorf("storage: orc string count %d exceeds %d rows", total, limit)
	}
	pos := used
	if total == 0 {
		return nil, pos, nil
	}
	if pos >= len(buf) {
		return nil, 0, fmt.Errorf("storage: orc string mode truncated")
	}
	mode := buf[pos]
	pos++
	out := make([]string, total)
	switch mode {
	case strDict:
		dlen, n := binary.Uvarint(buf[pos:])
		if n <= 0 || dlen > uint64(len(buf)-pos-n) {
			return nil, 0, fmt.Errorf("storage: orc dict size")
		}
		pos += n
		dict := make([]string, dlen)
		for i := range dict {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l > uint64(len(buf)-pos-n) {
				return nil, 0, fmt.Errorf("storage: orc dict entry")
			}
			pos += n
			dict[i] = string(buf[pos : pos+int(l)])
			pos += int(l)
		}
		for i := range out {
			idx, n := binary.Uvarint(buf[pos:])
			if n <= 0 || idx >= dlen {
				return nil, 0, fmt.Errorf("storage: orc dict index")
			}
			pos += n
			out[i] = dict[idx]
		}
	case strDirect:
		lens := make([]int, total)
		for i := range lens {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l > uint64(len(buf)) {
				return nil, 0, fmt.Errorf("storage: orc string length")
			}
			pos += n
			lens[i] = int(l)
		}
		for i := range out {
			if pos+lens[i] > len(buf) {
				return nil, 0, fmt.Errorf("storage: orc string bytes truncated")
			}
			out[i] = string(buf[pos : pos+lens[i]])
			pos += lens[i]
		}
	default:
		return nil, 0, fmt.Errorf("storage: orc string mode %d", mode)
	}
	return out, pos, nil
}

// encodeColumn produces the full column stream (presence + values).
func encodeColumn(kind types.Kind, col []types.Datum) ([]byte, error) {
	buf := appendPresence(nil, col)
	switch kind {
	case types.KindBool, types.KindInt, types.KindDate:
		vals := make([]int64, 0, len(col))
		for _, d := range col {
			if !d.IsNull() {
				vals = append(vals, d.I)
			}
		}
		return appendInts(buf, vals), nil
	case types.KindFloat:
		vals := make([]float64, 0, len(col))
		for _, d := range col {
			if !d.IsNull() {
				vals = append(vals, d.F)
			}
		}
		return appendFloats(buf, vals), nil
	case types.KindString:
		vals := make([]string, 0, len(col))
		for _, d := range col {
			if !d.IsNull() {
				vals = append(vals, d.S)
			}
		}
		return appendStrings(buf, vals), nil
	default:
		return nil, fmt.Errorf("storage: orc cannot encode kind %v", kind)
	}
}

// decodedColumn holds one column's raw decoded streams (presence flags
// plus the dense non-null value array) before row or batch
// materialization. The batch path copies straight from these into
// vec.Vector payloads, skipping per-row Datum construction entirely.
type decodedColumn struct {
	kind    types.Kind
	present []bool
	ints    []int64
	floats  []float64
	strs    []string
	vi      int // cursor into the dense value stream
}

// decodeColumnStreams reverses encodeColumn into raw streams.
func decodeColumnStreams(kind types.Kind, buf []byte) (*decodedColumn, error) {
	present, pos, err := decodePresence(buf)
	if err != nil {
		return nil, err
	}
	dc := &decodedColumn{kind: kind, present: present}
	nPresent := 0
	for _, p := range present {
		if p {
			nPresent++
		}
	}
	switch kind {
	case types.KindBool, types.KindInt, types.KindDate:
		dc.ints, _, err = decodeInts(buf[pos:], len(present))
		if err != nil {
			return nil, err
		}
		if len(dc.ints) < nPresent {
			return nil, fmt.Errorf("storage: orc int column short")
		}
	case types.KindFloat:
		dc.floats, _, err = decodeFloats(buf[pos:])
		if err != nil {
			return nil, err
		}
		if len(dc.floats) < nPresent {
			return nil, fmt.Errorf("storage: orc float column short")
		}
	case types.KindString:
		dc.strs, _, err = decodeStrings(buf[pos:], len(present))
		if err != nil {
			return nil, err
		}
		if len(dc.strs) < nPresent {
			return nil, fmt.Errorf("storage: orc string column short")
		}
	default:
		return nil, fmt.Errorf("storage: orc cannot decode kind %v", kind)
	}
	return dc, nil
}

// fillVector copies rows [row, row+n) into v. The ORC presence bit is
// SET for present values; the vec convention is the inverse (bit set =
// NULL), converted here.
func (dc *decodedColumn) fillVector(v *vec.Vector, row, n int) {
	v.Reset(dc.kind, n)
	switch dc.kind {
	case types.KindBool, types.KindInt, types.KindDate:
		for i := 0; i < n; i++ {
			if dc.present[row+i] {
				v.I64[i] = dc.ints[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	case types.KindFloat:
		for i := 0; i < n; i++ {
			if dc.present[row+i] {
				v.F64[i] = dc.floats[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			if dc.present[row+i] {
				v.Str[i] = dc.strs[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	}
}

// decodeColumn reverses encodeColumn into a datum vector.
func decodeColumn(kind types.Kind, buf []byte) ([]types.Datum, error) {
	present, pos, err := decodePresence(buf)
	if err != nil {
		return nil, err
	}
	out := make([]types.Datum, len(present))
	switch kind {
	case types.KindBool, types.KindInt, types.KindDate:
		vals, _, err := decodeInts(buf[pos:], len(present))
		if err != nil {
			return nil, err
		}
		vi := 0
		for i, p := range present {
			if p {
				if vi >= len(vals) {
					return nil, fmt.Errorf("storage: orc int column short")
				}
				out[i] = types.Datum{K: kind, I: vals[vi]}
				vi++
			}
		}
	case types.KindFloat:
		vals, _, err := decodeFloats(buf[pos:])
		if err != nil {
			return nil, err
		}
		vi := 0
		for i, p := range present {
			if p {
				if vi >= len(vals) {
					return nil, fmt.Errorf("storage: orc float column short")
				}
				out[i] = types.Float(vals[vi])
				vi++
			}
		}
	case types.KindString:
		vals, _, err := decodeStrings(buf[pos:], len(present))
		if err != nil {
			return nil, err
		}
		vi := 0
		for i, p := range present {
			if p {
				if vi >= len(vals) {
					return nil, fmt.Errorf("storage: orc string column short")
				}
				out[i] = types.String(vals[vi])
				vi++
			}
		}
	default:
		return nil, fmt.Errorf("storage: orc cannot decode kind %v", kind)
	}
	return out, nil
}
