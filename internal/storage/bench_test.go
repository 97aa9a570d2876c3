package storage

import (
	"io"
	"testing"

	"hivempi/internal/dfs"
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
