package storage

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// benchORC writes a 20k-row ORC table once per benchmark and returns
// the FS, schema and whole-file split.
func benchORC(b *testing.B) (*dfs.FileSystem, dfs.Split) {
	b.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 256 << 10, Nodes: []string{"n1"}})
	schema := testSchema()
	w, err := CreateTableFile(fs, "/bench.orc", FormatORC, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range testRows(20000) {
		if err := w.Write(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	sz, err := fs.Size("/bench.orc")
	if err != nil {
		b.Fatal(err)
	}
	return fs, dfs.Split{Path: "/bench.orc", Offset: 0, Length: sz}
}

// BenchmarkORCScanRow decodes the split row by row — the row-mode scan
// the engine runs without hive.exec.vectorized.
func BenchmarkORCScanRow(b *testing.B) {
	fs, split := benchORC(b)
	schema := testSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplit(fs, split, FormatORC, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 20000 {
			b.Fatalf("read %d rows", n)
		}
	}
}

// BenchmarkORCScanBatch decodes the same split through the columnar
// path straight into vector payloads.
func BenchmarkORCScanBatch(b *testing.B) {
	fs, split := benchORC(b)
	schema := testSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplitBatch(fs, split, FormatORC, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		batch := vec.Get(schema.Len())
		n := 0
		for {
			err := rd.NextBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += batch.N
		}
		vec.Put(batch)
		if n != 20000 {
			b.Fatalf("read %d rows", n)
		}
	}
}

// BenchmarkORCOpenSplit opens every split of a many-stripe file (one
// stripe per 4 KB block) and reports the per-split open cost, the
// part of a scan that grows with splits × stripes if the file footer
// is decoded per split rather than once per file.
func BenchmarkORCOpenSplit(b *testing.B) {
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n1"}})
	schema := testSchema()
	w, err := CreateTableFile(fs, "/open.orc", FormatORC, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range testRows(20000) {
		if err := w.Write(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	splits, err := fs.Splits("/open.orc", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range splits {
			if _, err := OpenSplit(fs, sp, FormatORC, schema, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(splits)), "ns/split")
	b.ReportMetric(float64(len(splits)), "splits")
}

// lineitemSchema mirrors TPC-H lineitem's column kinds: keys, decimal
// quantities and prices, flag strings, three dates and free text.
func lineitemSchema() *types.Schema {
	return types.NewSchema(
		types.Col("l_orderkey", types.KindInt),
		types.Col("l_partkey", types.KindInt),
		types.Col("l_suppkey", types.KindInt),
		types.Col("l_linenumber", types.KindInt),
		types.Col("l_quantity", types.KindFloat),
		types.Col("l_extendedprice", types.KindFloat),
		types.Col("l_discount", types.KindFloat),
		types.Col("l_tax", types.KindFloat),
		types.Col("l_returnflag", types.KindString),
		types.Col("l_linestatus", types.KindString),
		types.Col("l_shipdate", types.KindDate),
		types.Col("l_commitdate", types.KindDate),
		types.Col("l_receiptdate", types.KindDate),
		types.Col("l_shipinstruct", types.KindString),
		types.Col("l_shipmode", types.KindString),
		types.Col("l_comment", types.KindString),
	)
}

func lineitemRows(n int) []types.Row {
	r := rand.New(rand.NewSource(7))
	flags := []string{"A", "N", "R"}
	instructs := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	rows := make([]types.Row, n)
	for i := range rows {
		ship := int64(8036 + r.Intn(2500))
		qty := float64(1 + r.Intn(50))
		rows[i] = types.Row{
			types.Int(int64(i/4 + 1)),
			types.Int(int64(r.Intn(200000))),
			types.Int(int64(r.Intn(10000))),
			types.Int(int64(i%4 + 1)),
			types.Float(qty),
			types.Float(qty * float64(90000+r.Intn(10000)) / 100),
			types.Float(float64(r.Intn(11)) / 100),
			types.Float(float64(r.Intn(9)) / 100),
			types.String(flags[r.Intn(len(flags))]),
			types.String(flags[r.Intn(2)+1]),
			types.Date(ship),
			types.Date(ship + int64(r.Intn(60)) - 30),
			types.Date(ship + int64(1+r.Intn(30))),
			types.String(instructs[r.Intn(len(instructs))]),
			types.String(modes[r.Intn(len(modes))]),
			types.String(fmt.Sprintf("carefully final deposits %d", r.Intn(1000))),
		}
	}
	return rows
}

// BenchmarkTextSplitScan drains a 5k-row lineitem-shaped TextFile split
// through the row reader: the text/Hadoop map path's line read and
// one-pass field parse.
func BenchmarkTextSplitScan(b *testing.B) {
	const n = 5000
	fs := dfs.New(dfs.Config{BlockSize: 4 << 20, Nodes: []string{"n1"}})
	schema := lineitemSchema()
	w, err := CreateTableFile(fs, "/lineitem.txt", FormatText, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range lineitemRows(n) {
		if err := w.Write(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	sz, err := fs.Size("/lineitem.txt")
	if err != nil {
		b.Fatal(err)
	}
	split := dfs.Split{Path: "/lineitem.txt", Offset: 0, Length: sz}
	b.SetBytes(sz)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplit(fs, split, FormatText, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != n {
			b.Fatalf("read %d rows", rows)
		}
	}
}
