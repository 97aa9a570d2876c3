package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// The ORC-like file layout:
//
//	[stripe 0][stripe 1]...[footer JSON][uint32 footer length]["GORC"]
//
// Each stripe holds one flate-compressed stream per column; the footer
// records the schema, every stripe's offset/length, per-column stream
// offsets within the stripe, row counts and per-column min/max/null
// statistics used for predicate pushdown.

var orcMagic = []byte("GORC")

// ORCOptions tunes the writer.
type ORCOptions struct {
	StripeRows  int   // max rows per stripe; DefaultStripeRows if 0
	StripeBytes int64 // approx uncompressed bytes per stripe; 0 = rows only
}

// DefaultStripeRows matches a scaled-down ORC stripe granularity.
const DefaultStripeRows = 1 << 20

type orcStripeMeta struct {
	Offset     int64        `json:"offset"`
	Length     int64        `json:"length"`
	Rows       int          `json:"rows"`
	ColOffsets []int64      `json:"colOffsets"` // within-stripe, len nCols+1
	Stats      []orcColStat `json:"stats"`
}

type orcColStat struct {
	Min   jsonDatum `json:"min"`
	Max   jsonDatum `json:"max"`
	Nulls int64     `json:"nulls"`
}

// jsonDatum serializes a datum into the footer.
type jsonDatum struct {
	K uint8   `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

func toJSONDatum(d types.Datum) jsonDatum {
	return jsonDatum{K: uint8(d.K), I: d.I, F: d.F, S: d.S}
}

func (j jsonDatum) datum() types.Datum {
	return types.Datum{K: types.Kind(j.K), I: j.I, F: j.F, S: j.S}
}

type orcColumnMeta struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type orcFooter struct {
	Columns []orcColumnMeta `json:"columns"`
	Stripes []orcStripeMeta `json:"stripes"`
	Rows    int64           `json:"rows"`
}

// orcWriter buffers rows into stripes.
type orcWriter struct {
	w      io.WriteCloser
	schema *types.Schema
	opts   ORCOptions

	cols        [][]types.Datum
	rows        int
	approxBytes int64
	offset      int64
	footer      orcFooter

	// stripe assembles one stripe's compressed streams and fw is the
	// compressor Reset for every column stream; both are reused across
	// stripes (flate.Writer.Reset is equivalent to NewWriter, so the
	// bytes are the same as with a fresh writer per stream).
	stripe bytes.Buffer
	fw     *flate.Writer
}

func newORCWriter(w io.WriteCloser, schema *types.Schema, opts ORCOptions) *orcWriter {
	if opts.StripeRows <= 0 {
		opts.StripeRows = DefaultStripeRows
	}
	ow := &orcWriter{w: w, schema: schema, opts: opts}
	ow.cols = make([][]types.Datum, schema.Len())
	for _, c := range schema.Columns {
		ow.footer.Columns = append(ow.footer.Columns, orcColumnMeta{Name: c.Name, Type: c.Type.String()})
	}
	return ow
}

func (ow *orcWriter) Write(row types.Row) error {
	if len(row) != ow.schema.Len() {
		return fmt.Errorf("storage: orc row has %d columns, schema %d", len(row), ow.schema.Len())
	}
	for i, d := range row {
		ow.cols[i] = append(ow.cols[i], d)
		if d.K == types.KindString {
			ow.approxBytes += int64(len(d.S)) + 2
		} else {
			ow.approxBytes += 9
		}
	}
	ow.rows++
	if ow.rows >= ow.opts.StripeRows ||
		(ow.opts.StripeBytes > 0 && ow.approxBytes >= ow.opts.StripeBytes) {
		return ow.flushStripe()
	}
	return nil
}

func (ow *orcWriter) flushStripe() error {
	if ow.rows == 0 {
		return nil
	}
	meta := orcStripeMeta{Offset: ow.offset, Rows: ow.rows}
	meta.ColOffsets = make([]int64, 0, ow.schema.Len()+1)
	stripe := &ow.stripe
	stripe.Reset()
	if ow.fw == nil {
		fw, err := flate.NewWriter(stripe, flate.BestSpeed)
		if err != nil {
			return err
		}
		ow.fw = fw
	}
	for ci, col := range ow.cols {
		meta.ColOffsets = append(meta.ColOffsets, int64(stripe.Len()))
		raw, err := encodeColumn(ow.schema.Columns[ci].Type, col)
		if err != nil {
			return err
		}
		ow.fw.Reset(stripe)
		if _, err := ow.fw.Write(raw); err != nil {
			return err
		}
		if err := ow.fw.Close(); err != nil {
			return err
		}
		meta.Stats = append(meta.Stats, columnStats(col))
	}
	meta.ColOffsets = append(meta.ColOffsets, int64(stripe.Len()))
	meta.Length = int64(stripe.Len())
	if _, err := ow.w.Write(stripe.Bytes()); err != nil {
		return err
	}
	ow.offset += meta.Length
	ow.footer.Stripes = append(ow.footer.Stripes, meta)
	ow.footer.Rows += int64(ow.rows)
	for i := range ow.cols {
		ow.cols[i] = ow.cols[i][:0]
	}
	ow.rows = 0
	ow.approxBytes = 0
	return nil
}

func columnStats(col []types.Datum) orcColStat {
	st := orcColStat{}
	var min, max types.Datum
	seen := false
	for _, d := range col {
		if d.IsNull() {
			st.Nulls++
			continue
		}
		if !seen {
			min, max = d, d
			seen = true
			continue
		}
		if types.Compare(d, min) < 0 {
			min = d
		}
		if types.Compare(d, max) > 0 {
			max = d
		}
	}
	st.Min = toJSONDatum(min)
	st.Max = toJSONDatum(max)
	return st
}

func (ow *orcWriter) Close() error {
	if err := ow.flushStripe(); err != nil {
		return err
	}
	fb, err := json.Marshal(&ow.footer)
	if err != nil {
		return err
	}
	if _, err := ow.w.Write(fb); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(fb)))
	copy(tail[4:], orcMagic)
	if _, err := ow.w.Write(tail[:]); err != nil {
		return err
	}
	return ow.w.Close()
}

// orcFooterDecodes counts readORCFooter calls. It is a test hook: the
// per-file memo must hold it to one decode per published file.
var orcFooterDecodes atomic.Int64

// openORCFooter returns r's file footer, decoded and validated once per
// published DFS file and shared read-only by every split reader after.
func openORCFooter(r *dfs.Reader) (*orcFooter, error) {
	v, err := r.Memo(func() (any, error) { return readORCFooter(r) })
	if err != nil {
		return nil, err
	}
	return v.(*orcFooter), nil
}

// readORCFooter parses and validates the footer from a ReadSeeker.
func readORCFooter(r io.ReadSeeker) (*orcFooter, error) {
	orcFooterDecodes.Add(1)
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if end < 8 {
		return nil, fmt.Errorf("storage: orc file too small (%d bytes)", end)
	}
	var tail [8]byte
	if _, err := r.Seek(end-8, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(tail[4:], orcMagic) {
		return nil, fmt.Errorf("storage: bad orc magic %q", tail[4:])
	}
	flen := int64(binary.LittleEndian.Uint32(tail[0:]))
	if flen > end-8 {
		return nil, fmt.Errorf("storage: orc footer length %d exceeds file", flen)
	}
	fb := make([]byte, flen)
	if _, err := r.Seek(end-8-flen, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, fb); err != nil {
		return nil, err
	}
	var footer orcFooter
	if err := json.Unmarshal(fb, &footer); err != nil {
		return nil, fmt.Errorf("storage: orc footer: %w", err)
	}
	if err := footer.validate(end - 8 - flen); err != nil {
		return nil, err
	}
	return &footer, nil
}

// validate checks the footer's structure against the dataEnd bytes of
// stripe data that precede it, so readers can index column offsets
// and statistics without further bounds checks.
func (f *orcFooter) validate(dataEnd int64) error {
	nCols := len(f.Columns)
	for i, st := range f.Stripes {
		if st.Offset < 0 || st.Length < 0 || st.Offset > dataEnd || st.Length > dataEnd-st.Offset {
			return fmt.Errorf("storage: orc footer: stripe %d [%d,+%d) outside data region of %d bytes",
				i, st.Offset, st.Length, dataEnd)
		}
		if st.Rows < 0 {
			return fmt.Errorf("storage: orc footer: stripe %d has %d rows", i, st.Rows)
		}
		if len(st.ColOffsets) != nCols+1 {
			return fmt.Errorf("storage: orc footer: stripe %d has %d column offsets, want %d",
				i, len(st.ColOffsets), nCols+1)
		}
		prev := int64(0)
		for _, off := range st.ColOffsets {
			if off < prev || off > st.Length {
				return fmt.Errorf("storage: orc footer: stripe %d column offsets %v not monotone within %d bytes",
					i, st.ColOffsets, st.Length)
			}
			prev = off
		}
		if len(st.Stats) != nCols {
			return fmt.Errorf("storage: orc footer: stripe %d has %d column stats, want %d",
				i, len(st.Stats), nCols)
		}
	}
	return nil
}

// orcSplitReader serves the stripes whose start offset lies inside the
// split range, materializing only projected columns and skipping
// stripes pruned by the predicate's min/max check.
type orcSplitReader struct {
	r       *dfs.Reader
	schema  *types.Schema
	stripes []orcStripeMeta
	project []int

	si   int
	cols [][]types.Datum
	row  int
	rows int

	// vcols holds the batch path's raw decoded streams (presence +
	// dense values) so NextBatch copies column data straight into
	// vector payloads without materializing Datums. A reader is used in
	// row mode or batch mode, never both.
	vcols []*decodedColumn

	// Per-reader stream scratch, reused for every column stream: the
	// compressed bytes, their reader, the inflater (reset through
	// flate.Resetter) and the inflated bytes. The column decoders copy
	// what they keep, so raw is free again once a stream is decoded.
	comp     []byte
	compRd   bytes.Reader
	inflater io.ReadCloser
	raw      bytes.Buffer

	// BytesReadPhysical counts compressed bytes actually fetched, the
	// quantity that makes ORC cheaper than Text in the cost model.
	BytesReadPhysical int64
	StripesSkipped    int64
}

func newORCSplitReader(r *dfs.Reader, offset, length int64, schema *types.Schema,
	projection []int, predicate *Predicate) (*orcSplitReader, error) {
	footer, err := openORCFooter(r)
	if err != nil {
		return nil, err
	}
	if len(footer.Columns) != schema.Len() {
		return nil, fmt.Errorf("storage: orc has %d columns, schema %d", len(footer.Columns), schema.Len())
	}
	sr := &orcSplitReader{r: r, schema: schema, project: projection}
	for _, st := range footer.Stripes {
		if st.Offset < offset || st.Offset >= offset+length {
			continue
		}
		if predicate != nil && predicate.Column < len(st.Stats) {
			cs := st.Stats[predicate.Column]
			if !predicate.matchesRange(cs.Min.datum(), cs.Max.datum()) {
				sr.StripesSkipped++
				continue
			}
		}
		sr.stripes = append(sr.stripes, st)
	}
	return sr, nil
}

// projected returns the effective projection list (all columns when
// none was requested).
func (sr *orcSplitReader) projected() []int {
	if sr.project != nil {
		return sr.project
	}
	all := make([]int, sr.schema.Len())
	for i := range all {
		all[i] = i
	}
	return all
}

// readColumnStream fetches and inflates one column's stream of st. The
// returned bytes alias the reader's scratch and are valid until the
// next call.
func (sr *orcSplitReader) readColumnStream(st orcStripeMeta, ci int) ([]byte, error) {
	if ci < 0 || ci >= sr.schema.Len() {
		return nil, fmt.Errorf("storage: orc projection column %d out of range", ci)
	}
	lo := st.Offset + st.ColOffsets[ci]
	n := int(st.ColOffsets[ci+1] - st.ColOffsets[ci])
	if cap(sr.comp) < n {
		sr.comp = make([]byte, n)
	}
	comp := sr.comp[:n]
	if _, err := sr.r.ReadAt(comp, lo); err != nil {
		return nil, fmt.Errorf("storage: orc column stream: %w", err)
	}
	sr.BytesReadPhysical += int64(n)
	sr.compRd.Reset(comp)
	if sr.inflater == nil {
		sr.inflater = flate.NewReader(&sr.compRd)
	} else if err := sr.inflater.(flate.Resetter).Reset(&sr.compRd, nil); err != nil {
		return nil, fmt.Errorf("storage: orc inflate: %w", err)
	}
	sr.raw.Reset()
	if _, err := sr.raw.ReadFrom(sr.inflater); err != nil {
		return nil, fmt.Errorf("storage: orc inflate: %w", err)
	}
	return sr.raw.Bytes(), nil
}

// loadStripe decompresses the projected columns of stripe si.
func (sr *orcSplitReader) loadStripe(st orcStripeMeta) error {
	sr.cols = make([][]types.Datum, sr.schema.Len())
	for _, ci := range sr.projected() {
		raw, err := sr.readColumnStream(st, ci)
		if err != nil {
			return err
		}
		col, err := decodeColumn(sr.schema.Columns[ci].Type, raw)
		if err != nil {
			return err
		}
		if len(col) != st.Rows {
			return fmt.Errorf("storage: orc column has %d rows, stripe %d", len(col), st.Rows)
		}
		sr.cols[ci] = col
	}
	sr.rows = st.Rows
	sr.row = 0
	return nil
}

// loadStripeVec decompresses the projected columns of a stripe into
// raw streams for the batch path.
func (sr *orcSplitReader) loadStripeVec(st orcStripeMeta) error {
	sr.vcols = make([]*decodedColumn, sr.schema.Len())
	for _, ci := range sr.projected() {
		raw, err := sr.readColumnStream(st, ci)
		if err != nil {
			return err
		}
		dc, err := decodeColumnStreams(sr.schema.Columns[ci].Type, raw)
		if err != nil {
			return err
		}
		if len(dc.present) != st.Rows {
			return fmt.Errorf("storage: orc column has %d rows, stripe %d", len(dc.present), st.Rows)
		}
		sr.vcols[ci] = dc
	}
	sr.rows = st.Rows
	sr.row = 0
	return nil
}

// NextBatch implements BatchReader: it fills b's columns (one per
// schema column; unprojected columns come back all-null) with up to
// vec.DefaultSize rows decoded directly from the pruned column
// streams, and returns io.EOF when the split is exhausted.
func (sr *orcSplitReader) NextBatch(b *vec.Batch) error {
	for sr.row >= sr.rows || sr.vcols == nil {
		if sr.si >= len(sr.stripes) {
			return io.EOF
		}
		if err := sr.loadStripeVec(sr.stripes[sr.si]); err != nil {
			return err
		}
		sr.si++
	}
	n := sr.rows - sr.row
	if n > vec.DefaultSize {
		n = vec.DefaultSize
	}
	for ci := 0; ci < sr.schema.Len(); ci++ {
		if dc := sr.vcols[ci]; dc != nil {
			dc.fillVector(b.Cols[ci], sr.row, n)
		} else {
			b.Cols[ci].Reset(types.KindNull, n)
		}
	}
	b.N = n
	sr.row += n
	return nil
}

// PhysicalBytes implements PhysicalReader.
func (sr *orcSplitReader) PhysicalBytes() int64 { return sr.BytesReadPhysical }

func (sr *orcSplitReader) Next() (types.Row, error) {
	for sr.row >= sr.rows {
		if sr.si >= len(sr.stripes) {
			return nil, io.EOF
		}
		if err := sr.loadStripe(sr.stripes[sr.si]); err != nil {
			return nil, err
		}
		sr.si++
	}
	row := make(types.Row, sr.schema.Len())
	for ci := range row {
		if sr.cols[ci] != nil {
			row[ci] = sr.cols[ci][sr.row]
		} else {
			row[ci] = types.Null()
		}
	}
	sr.row++
	return row, nil
}
