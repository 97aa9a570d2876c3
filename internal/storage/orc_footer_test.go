package storage

import (
	"errors"
	"io"
	"sync"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// orcStripes returns the stripe count of path's footer.
func orcStripes(t *testing.T, fs *dfs.FileSystem, path string) int {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	footer, err := openORCFooter(r)
	if err != nil {
		t.Fatal(err)
	}
	return len(footer.Stripes)
}

// readSplits drains every block split of path through OpenSplit and
// returns the rows in file order.
func readSplits(t *testing.T, fs *dfs.FileSystem, path string, schema *types.Schema) []types.Row {
	t.Helper()
	splits, err := fs.Splits(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for _, sp := range splits {
		rd, err := OpenSplit(fs, sp, FormatORC, schema, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			row, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func checkRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !rowsEqual(got[i], want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestORCFooterDecodedOncePerFile(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	rows := testRows(5000)
	writeRows(t, fs, "/t.orc", FormatORC, schema, rows)
	splits, err := fs.Splits("/t.orc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 10 {
		t.Fatalf("want a many-split file, got %d splits", len(splits))
	}
	before := orcFooterDecodes.Load()
	checkRows(t, readSplits(t, fs, "/t.orc", schema), rows)
	for _, sp := range splits {
		if _, err := OpenSplitBatch(fs, sp, FormatORC, schema, []int{0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := orcFooterDecodes.Load() - before; n != 1 {
		t.Errorf("%d splits decoded the footer %d times, want 1", len(splits), n)
	}
}

func TestORCFooterOverwriteReadsNewRows(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	old := testRows(4000)
	writeRows(t, fs, "/t.orc", FormatORC, schema, old)
	checkRows(t, readSplits(t, fs, "/t.orc", schema), old)
	oldStripes := orcStripes(t, fs, "/t.orc")

	// Fewer rows with a different first value: new stripe count, and a
	// stale footer would point past the new data or at the wrong rows.
	fresh := testRows(900)
	for _, r := range fresh {
		r[0] = types.Int(r[0].I + 1_000_000)
	}
	writeRows(t, fs, "/t.orc", FormatORC, schema, fresh)
	if n := orcStripes(t, fs, "/t.orc"); n == oldStripes {
		t.Fatalf("overwrite kept %d stripes; the test needs a different count", n)
	}
	checkRows(t, readSplits(t, fs, "/t.orc", schema), fresh)
}

func TestORCFooterRenameOverExisting(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	src, dst := testRows(3000), testRows(700)
	writeRows(t, fs, "/src.orc", FormatORC, schema, src)
	writeRows(t, fs, "/dst.orc", FormatORC, schema, dst)
	checkRows(t, readSplits(t, fs, "/src.orc", schema), src)
	checkRows(t, readSplits(t, fs, "/dst.orc", schema), dst)

	if err := fs.Rename("/src.orc", "/dst.orc"); err != nil {
		t.Fatal(err)
	}
	before := orcFooterDecodes.Load()
	checkRows(t, readSplits(t, fs, "/dst.orc", schema), src)
	if n := orcFooterDecodes.Load() - before; n != 0 {
		t.Errorf("rename re-decoded the moved file's footer %d times", n)
	}
	if _, err := fs.Open("/src.orc"); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("rename source still opens: %v", err)
	}
}

func TestORCFooterDeleteThenRecreate(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	for _, drop := range []func(){
		func() { fs.Delete("/d/t.orc") },
		func() { fs.DeleteDir("/d") },
	} {
		writeRows(t, fs, "/d/t.orc", FormatORC, schema, testRows(3000))
		readSplits(t, fs, "/d/t.orc", schema)
		drop()
		if fs.Exists("/d/t.orc") {
			t.Fatal("file survived delete")
		}
		fresh := testRows(1200)
		for _, r := range fresh {
			r[2] = types.Float(-r[2].F)
		}
		writeRows(t, fs, "/d/t.orc", FormatORC, schema, fresh)
		checkRows(t, readSplits(t, fs, "/d/t.orc", schema), fresh)
	}
}

func TestORCFooterFailedDecodeNotCached(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	rows := testRows(2000)
	writeRows(t, fs, "/t.orc", FormatORC, schema, rows)
	sz, err := fs.Size("/t.orc")
	if err != nil {
		t.Fatal(err)
	}
	whole := dfs.Split{Path: "/t.orc", Offset: 0, Length: sz}
	fs.InjectReadFault("/t.orc", 1)
	if _, err := OpenSplit(fs, whole, FormatORC, schema, nil, nil); !errors.Is(err, dfs.ErrInjectedFault) {
		t.Fatalf("faulted footer read: err = %v, want injected fault", err)
	}
	before := orcFooterDecodes.Load()
	checkRows(t, readSplits(t, fs, "/t.orc", schema), rows)
	if n := orcFooterDecodes.Load() - before; n != 1 {
		t.Errorf("open after a failed decode decoded %d times, want 1", n)
	}
}

func TestORCFooterConcurrentFirstOpens(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	rows := testRows(3000)
	writeRows(t, fs, "/t.orc", FormatORC, schema, rows)
	splits, err := fs.Splits("/t.orc", 0)
	if err != nil {
		t.Fatal(err)
	}
	before := orcFooterDecodes.Load()
	var wg sync.WaitGroup
	counts := make([]int, len(splits))
	errs := make([]error, len(splits))
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp dfs.Split) {
			defer wg.Done()
			rd, err := OpenSplitBatch(fs, sp, FormatORC, schema, nil, nil)
			if err != nil {
				errs[i] = err
				return
			}
			b := vec.Get(schema.Len())
			defer vec.Put(b)
			for {
				if err := rd.NextBatch(b); err == io.EOF {
					return
				} else if err != nil {
					errs[i] = err
					return
				}
				counts[i] += b.N
			}
		}(i, sp)
	}
	wg.Wait()
	total := 0
	for i := range splits {
		if errs[i] != nil {
			t.Fatalf("split %d: %v", i, errs[i])
		}
		total += counts[i]
	}
	if total != len(rows) {
		t.Errorf("concurrent splits read %d rows, want %d", total, len(rows))
	}
	if n := orcFooterDecodes.Load() - before; n != 1 {
		t.Errorf("%d concurrent first opens decoded %d times, want 1", len(splits), n)
	}
}
