package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeRow feeds arbitrary bytes to the row codec: they must come
// back as a row or an error, never a panic, and whatever decodes must
// round-trip through EncodeRow. The seed corpus in testdata/fuzz holds
// valid rows and column counts far beyond the buffer (1<<40, 1<<62).
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(nil, Row{Int(-7), String("a|b"), Float(2.5), Bool(true), MustDate("1998-12-01"), Null()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRow(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeRow consumed %d of %d bytes", n, len(data))
		}
		enc := EncodeRow(nil, row)
		again, m, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if m != len(enc) || !bytes.Equal(EncodeRow(nil, again), enc) {
			t.Fatalf("row %v does not round-trip: %x", row, enc)
		}
	})
}

// TestDecodeRowHostileCount pins the hostile column counts: a count the
// buffer cannot hold is an error, not an allocation.
func TestDecodeRowHostileCount(t *testing.T) {
	for _, n := range []uint64{1 << 62, 1 << 40, 2} {
		buf := AppendDatum(binary.AppendUvarint(nil, n), Int(1))
		if _, _, err := DecodeRow(buf); err == nil {
			t.Errorf("count %d over %d bytes decoded", n, len(buf))
		}
	}
}

// parseRowTextSplit is the strings.Split text-row parser that
// ParseRowText replaced; it is the differential oracle.
func parseRowTextSplit(line string, delim byte, s *Schema) (Row, error) {
	fields := strings.Split(line, string(delim))
	if len(fields) != len(s.Columns) {
		return nil, fmt.Errorf("row has %d fields, schema %s has %d",
			len(fields), s, len(s.Columns))
	}
	row := make(Row, len(fields))
	for i, f := range fields {
		d, err := ParseText(f, s.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", s.Columns[i].Name, err)
		}
		row[i] = d
	}
	return row, nil
}

// fuzzSchema builds a schema with one column per byte of kinds, each
// byte picking a kind (KindNull included: it rejects every field but
// \N).
func fuzzSchema(kinds string) *Schema {
	cols := make([]Column, len(kinds))
	for i := range cols {
		cols[i] = Col(fmt.Sprintf("c%d", i), Kind(kinds[i]%6))
	}
	return NewSchema(cols...)
}

func checkParseRowText(t *testing.T, line string, delim byte, s *Schema) {
	t.Helper()
	got, gotErr := ParseRowText(line, delim, s)
	want, wantErr := parseRowTextSplit(line, delim, s)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ParseRowText(%q, %q, %s): error %v, oracle %v", line, delim, s, gotErr, wantErr)
	}
	if !bytes.Equal(EncodeRow(nil, got), EncodeRow(nil, want)) {
		t.Fatalf("ParseRowText(%q, %q, %s) = %v, oracle %v", line, delim, s, got, want)
	}
}

// FuzzParseRowText checks the one-pass text parser against the
// strings.Split oracle: the same row, or the same error string, on any
// line and schema.
func FuzzParseRowText(f *testing.F) {
	lineitem := string([]byte{2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 4, 4, 4})
	f.Add("1|155190|7706|1|17|21168.23|0.04|0.02|N|O|1996-03-13|1996-02-12|1996-03-22|DELIVER IN PERSON|TRUCK|egular courts above the", lineitem, byte('|'))
	f.Add("5|hello|1.5", string([]byte{2, 4, 3}), byte('|'))
	f.Add("z|x", string([]byte{2, 4, 3}), byte('|'))
	f.Add(`\N||1996-02-30`, string([]byte{0, 4, 5}), byte('|'))
	f.Add("", "", byte('|'))
	f.Add("", string([]byte{4}), byte(','))
	f.Add("true,,", string([]byte{1, 4}), byte(','))
	f.Fuzz(func(t *testing.T, line, kinds string, delim byte) {
		// The oracle splits on string(delim), which for a byte >= 0x80
		// is a two-byte rune encoding; the text serde's delimiters are
		// ASCII.
		if len(kinds) > 64 || delim >= 0x80 {
			return
		}
		checkParseRowText(t, line, delim, fuzzSchema(kinds))
	})
}

// TestParseRowTextErrorOrder checks, against the oracle, that a field
// count mismatch is reported before any column's parse error, however
// the bad column and the count mismatch are placed.
func TestParseRowTextErrorOrder(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindDate), Col("c", KindFloat))
	for _, line := range []string{
		"5|1996-01-01|1.5", "z|1996-01-01|1.5", "z|x", "z", "z|1996-01-01|1.5|", "5|1996-13-01|x|y",
		"5|1996-01-01|", "|||", "", "5|1996-01-01|1.5|z", "5|x|1.5",
	} {
		checkParseRowText(t, line, '|', s)
	}
	checkParseRowText(t, "x", '|', NewSchema())
	checkParseRowText(t, "", '|', NewSchema())
}

// TestParseRowTextByteDelim checks that the delimiter is the one byte,
// also above 0x7f, where the oracle's string(delim) is a two-byte rune.
func TestParseRowTextByteDelim(t *testing.T) {
	s := NewSchema(Col("x", KindString), Col("y", KindString))
	row, err := ParseRowText("a\xacb", 0xac, s)
	if err != nil || row[0].S != "a" || row[1].S != "b" {
		t.Fatalf("ParseRowText = %v, %v", row, err)
	}
	if _, err := ParseRowText("a\xacb\xac", 0xac, s); err == nil || !strings.HasPrefix(err.Error(), "row has 3 fields") {
		t.Fatalf("three fields: %v", err)
	}
}

func dateOracle(s string) (Datum, error) {
	tm, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Datum{}, fmt.Errorf("parse date %q: %w", s, err)
	}
	return Date(tm.Unix() / 86400), nil
}

func checkDate(t *testing.T, s string) {
	t.Helper()
	got, gotErr := DateFromString(s)
	want, wantErr := dateOracle(s)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Fatalf("DateFromString(%q) = %v, %v; time.Parse gives %v, %v", s, got, gotErr, want, wantErr)
	}
}

// FuzzDateFromString checks the direct date decode against time.Parse
// on the value and on accept/reject.
func FuzzDateFromString(f *testing.F) {
	for _, s := range []string{"1970-01-01", "0000-02-29", "2000-02-29", "1900-02-29", "9999-12-31",
		"1996-13-01", "1996-00-10", "1996-04-31", "+996-01-01", "1996-1-01", "1996-01-01x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkDate(t, s) })
}

// TestDateFromStringGrid compares DateFromString with time.Parse on
// every month 00-13 and day 00-32 of years 0000-0100, 1582-2600 and
// 9900-9999.
func TestDateFromStringGrid(t *testing.T) {
	for _, yr := range [][2]int{{0, 100}, {1582, 2600}, {9900, 9999}} {
		for y := yr[0]; y <= yr[1]; y++ {
			for m := 0; m <= 13; m++ {
				for d := 0; d <= 32; d++ {
					checkDate(t, fmt.Sprintf("%04d-%02d-%02d", y, m, d))
				}
			}
		}
	}
}
