package types

import (
	"fmt"
	"strings"
)

// Row is an ordered tuple of datums matching some Schema.
type Row []Datum

// Clone returns a deep-enough copy of the row (datums are values).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Text renders the row with the classic Hive field delimiter.
func (r Row) Text(delim byte) string {
	var sb strings.Builder
	for i, d := range r {
		if i > 0 {
			sb.WriteByte(delim)
		}
		sb.WriteString(d.Text())
	}
	return sb.String()
}

// Column describes one column of a table or intermediate result.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Col is shorthand for constructing a Column.
func Col(name string, t Kind) Column { return Column{Name: name, Type: t} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the ordinal of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a bigint, b string)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseRowText parses one text-serde line into a row for the schema.
// It walks the fields in place; a line whose field count does not match
// the schema reports that before any column's parse error.
func ParseRowText(line string, delim byte, s *Schema) (Row, error) {
	n := len(s.Columns)
	if n == 0 {
		return nil, fieldCountError(line, delim, s)
	}
	row := make(Row, n)
	rest := line
	for i := range row {
		field := rest
		end := strings.IndexByte(rest, delim)
		if (end < 0) != (i == n-1) {
			return nil, fieldCountError(line, delim, s)
		}
		if end >= 0 {
			field, rest = rest[:end], rest[end+1:]
		}
		d, err := ParseText(field, s.Columns[i].Type)
		if err != nil {
			if countFields(line, delim) != n {
				return nil, fieldCountError(line, delim, s)
			}
			return nil, fmt.Errorf("column %s: %w", s.Columns[i].Name, err)
		}
		row[i] = d
	}
	return row, nil
}

func fieldCountError(line string, delim byte, s *Schema) error {
	return fmt.Errorf("row has %d fields, schema %s has %d",
		countFields(line, delim), s, len(s.Columns))
}

// countFields counts delim-separated fields. The separator is the one
// byte delim; string(delim) would be its UTF-8 rune encoding.
func countFields(line string, delim byte) int {
	return strings.Count(line, string([]byte{delim})) + 1
}
