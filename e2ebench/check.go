package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"hivempi/internal/hive"
	"hivempi/internal/types"
)

// verify reports why a query's outcome is wrong, or nil: the run
// failed, or a checked query's last result differs from the reference.
func (q *query) verify(results []*hive.Result, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if !q.checked {
		return nil
	}
	if len(results) == 0 {
		return errors.New("no result")
	}
	return matchRows(results[len(results)-1].Rows, q.want)
}

// canon renders a row for order-insensitive matching, floats rounded.
func canon(r types.Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		if d.K == types.KindFloat {
			parts[i] = fmt.Sprintf("%.3f", d.F)
		} else {
			parts[i] = d.Text()
		}
	}
	return strings.Join(parts, "|")
}

// matchRows compares result sets as refexec's tests do: both sides
// sorted canonically, floats equal within 1e-6 relative, every other
// value exactly equal.
func matchRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	sorted := func(rows []types.Row) []types.Row {
		keys := make([]string, len(rows))
		idx := make([]int, len(rows))
		for i, r := range rows {
			keys[i], idx[i] = canon(r), i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		out := make([]types.Row, len(rows))
		for i, j := range idx {
			out[i] = rows[j]
		}
		return out
	}
	got, want = sorted(got), sorted(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: width %d, reference %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if g.K == types.KindFloat || w.K == types.KindFloat {
				gv, wv := g.Float(), w.Float()
				if math.Abs(gv-wv) > 1e-6*math.Max(1, math.Max(math.Abs(gv), math.Abs(wv))) {
					return fmt.Errorf("row %d col %d: %v, reference %v", i, c, gv, wv)
				}
				continue
			}
			if g.IsNull() != w.IsNull() || (!g.IsNull() && types.Compare(g, w) != 0) {
				return fmt.Errorf("row %d col %d: %s, reference %s", i, c, canon(got[i]), canon(want[i]))
			}
		}
	}
	return nil
}
