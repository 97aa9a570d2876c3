package storage

import (
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// FuzzORCOpenSplit feeds arbitrary bytes to the ORC reader as a DFS
// file and drains it through both the row and the batch path: corrupt
// input must come back as an error, never a panic. The seed corpus in
// testdata/fuzz holds a valid file and the orc_corrupt_test cases.
func FuzzORCOpenSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the input so a flate bomb cannot inflate past a few MB.
		if len(data) > 8<<10 {
			return
		}
		fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
		if err := fs.WriteFile("/f", data); err != nil {
			t.Fatal(err)
		}
		schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
		whole := dfs.Split{Path: "/f", Offset: 0, Length: int64(len(data))}
		if rd, err := OpenSplit(fs, whole, FormatORC, schema, nil, nil); err == nil {
			for {
				if _, err := rd.Next(); err != nil {
					break
				}
			}
		}
		pred := &Predicate{Column: 0, Op: PredGE, Value: types.Int(10)}
		if rd, err := OpenSplitBatch(fs, whole, FormatORC, schema, []int{1}, pred); err == nil {
			b := vec.Get(schema.Len())
			defer vec.Put(b)
			for {
				if err := rd.NextBatch(b); err != nil {
					break
				}
			}
		}
	})
}
