package storage

import (
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
)

// orcTestFile writes a tiny ORC file and returns its bytes.
func orcTestFile(t *testing.T) (*dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	w, err := CreateTableFile(fs, "/f", FormatORC, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Write(types.Row{types.Int(int64(i)), types.String("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, "/f"
}

func openCorrupted(t *testing.T, mutate func([]byte) []byte) error {
	t.Helper()
	fs, path := orcTestFile(t)
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = mutate(append([]byte(nil), data...))
	if err := fs.WriteFile("/corrupt", data); err != nil {
		t.Fatal(err)
	}
	sz, _ := fs.Size("/corrupt")
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	rd, err := OpenSplit(fs, dfs.Split{Path: "/corrupt", Offset: 0, Length: sz},
		FormatORC, schema, nil, nil)
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Next(); err != nil {
			if err.Error() == "EOF" {
				return nil
			}
			return err
		}
	}
}

func TestORCBadMagicRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		copy(b[len(b)-4:], "XXXX")
		return b
	})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not detected: %v", err)
	}
}

func TestORCTruncatedFileRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte { return b[:4] })
	if err == nil {
		t.Error("truncated file not detected")
	}
}

func TestORCFooterLengthOverflowRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		// Footer length claims more bytes than the file holds.
		b[len(b)-8] = 0xFF
		b[len(b)-7] = 0xFF
		b[len(b)-6] = 0xFF
		b[len(b)-5] = 0x0F
		return b
	})
	if err == nil || !strings.Contains(err.Error(), "footer") {
		t.Errorf("footer overflow not detected: %v", err)
	}
}

func TestORCGarbageFooterRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		// Zero the first footer byte so JSON parsing fails.
		// Footer length is in the last 8 bytes; corrupt just before it.
		if len(b) > 40 {
			b[len(b)-20] = 0x00
		}
		return b
	})
	if err == nil {
		t.Error("garbage footer not detected")
	}
}

func TestORCEmptySchemaMismatch(t *testing.T) {
	fs, path := orcTestFile(t)
	sz, _ := fs.Size(path)
	wrong := types.NewSchema(types.Col("only_one", types.KindInt))
	if _, err := OpenSplit(fs, dfs.Split{Path: path, Offset: 0, Length: sz},
		FormatORC, wrong, nil, nil); err == nil {
		t.Error("column count mismatch not detected")
	}
}

// rewriteFooter re-encodes b's footer after mutate edits it, keeping the
// stripe data, so a structurally wrong but well-formed footer reaches
// the reader.
func rewriteFooter(t *testing.T, b []byte, mutate func(*orcFooter)) []byte {
	t.Helper()
	flen := int(binary.LittleEndian.Uint32(b[len(b)-8:]))
	dataEnd := len(b) - 8 - flen
	var footer orcFooter
	if err := json.Unmarshal(b[dataEnd:len(b)-8], &footer); err != nil {
		t.Fatal(err)
	}
	mutate(&footer)
	fb, err := json.Marshal(&footer)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), b[:dataEnd]...), fb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fb)))
	return append(out, orcMagic...)
}

func TestORCFooterStructureRejected(t *testing.T) {
	cases := map[string]func(*orcFooter){
		"short colOffsets": func(f *orcFooter) {
			f.Stripes[0].ColOffsets = f.Stripes[0].ColOffsets[:1]
		},
		"non-monotone colOffsets": func(f *orcFooter) {
			co := f.Stripes[0].ColOffsets
			co[0], co[1] = co[1], co[0]
		},
		"colOffsets past stripe": func(f *orcFooter) {
			f.Stripes[0].ColOffsets[2] = f.Stripes[0].Length + 1
		},
		"stripe past data region": func(f *orcFooter) {
			f.Stripes[0].Length += 1 << 20
		},
		"negative stripe offset": func(f *orcFooter) {
			f.Stripes[0].Offset = -1
		},
		"stats count": func(f *orcFooter) {
			f.Stripes[0].Stats = f.Stripes[0].Stats[:1]
		},
	}
	for name, mutate := range cases {
		err := openCorrupted(t, func(b []byte) []byte { return rewriteFooter(t, b, mutate) })
		if err == nil || !strings.Contains(err.Error(), "orc footer") {
			t.Errorf("%s: not rejected at footer decode: %v", name, err)
		}
	}
}
