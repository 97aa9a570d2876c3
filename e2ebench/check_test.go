package main

import (
	"errors"
	"testing"
	"time"

	"hivempi/internal/hive"
	"hivempi/internal/types"
)

func cloneRows(rows []types.Row) []types.Row {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = append(types.Row(nil), r...)
	}
	return out
}

// TestVerifyRejectsCorruptedResults feeds verify results that differ
// from the reference in each way the check must catch.
func TestVerifyRejectsCorruptedResults(t *testing.T) {
	want := []types.Row{
		{types.String("a"), types.Float(10.5), types.Int(3)},
		{types.String("b"), types.Float(2.25), types.Int(4)},
	}
	q := &query{name: "q", checked: true, want: want}
	results := func(rows []types.Row) []*hive.Result { return []*hive.Result{{Rows: rows}} }

	reordered := []types.Row{cloneRows(want)[1], cloneRows(want)[0]}
	tiny := cloneRows(want)
	tiny[0][1] = types.Float(10.5 * (1 + 1e-9))
	if err := q.verify(results(reordered), nil); err != nil {
		t.Errorf("reordered rows rejected: %v", err)
	}
	if err := q.verify(results(tiny), nil); err != nil {
		t.Errorf("float within tolerance rejected: %v", err)
	}

	float, str, num := cloneRows(want), cloneRows(want), cloneRows(want)
	float[1][1] = types.Float(2.26)
	str[0][0] = types.String("z")
	num[1][2] = types.Int(5)
	for name, res := range map[string][]*hive.Result{
		"float off":   results(float),
		"string off":  results(str),
		"int off":     results(num),
		"row missing": results(cloneRows(want)[:1]),
		"extra row":   results(append(cloneRows(want), types.Row{types.String("c"), types.Float(1), types.Int(1)})),
		"no result":   nil,
	} {
		if err := q.verify(res, nil); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
	if err := q.verify(results(want), errors.New("boom")); err == nil {
		t.Error("failed run accepted")
	}
}

// TestCorruptedResultIsCounted runs a small dataset of each kind
// through the real closed loop, then corrupts one reference and checks
// that exactly that query counts as failed.
func TestCorruptedResultIsCounted(t *testing.T) {
	for _, w := range []*workload{
		{name: "tpch", engine: "datampi", format: "orc", bytesPerGB: scale8000, data: tpchData{sf: 0.001}},
		{name: "hibench", engine: "hadoop", format: "textfile", bytesPerGB: scale8000, data: hibenchData{totalBytes: 256 << 10}},
	} {
		t.Run(w.name, func(t *testing.T) {
			s, err := w.setup(options{seed: 7, spillDir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := w.data.stream(7)
			if err != nil {
				t.Fatal(err)
			}
			if w.name == "tpch" {
				qs = []query{qs[0], qs[5]} // Q1 and Q6
			}
			st := s.runStream(qs)
			if st.failed != 0 || st.attempted != len(qs) {
				t.Fatalf("clean stream: %d of %d failed", st.failed, st.attempted)
			}
			last := len(qs) - 1
			if len(qs[last].want) == 0 {
				t.Fatal("reference is empty; nothing to corrupt")
			}
			bad := cloneRows(qs[last].want)
			col := len(bad[0]) - 1
			bad[0][col] = types.Float(bad[0][col].Float() + 1)
			qs[last].want = bad
			st = s.runStream(qs)
			if st.failed != 1 || st.attempted != len(qs) {
				t.Fatalf("corrupted stream: %d of %d failed, want 1", st.failed, st.attempted)
			}
		})
	}
}

// TestSelfTimesRejectOverlap checks the span reconciliation: nested
// children reconcile, children that overlap or leave their parent do
// not.
func TestSelfTimesRejectOverlap(t *testing.T) {
	mk := func(spans ...span) *tracer { return &tracer{spans: spans} }
	ok := mk(span{"root", -1, 0, 10}, span{"a", 0, 1, 4}, span{"b", 0, 4, 9}, span{"c", 2, 5, 6})
	self, err := ok.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{2, 3, 4, 1}; !equalDurations(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	for name, tr := range map[string]*tracer{
		"overlap": mk(span{"root", -1, 0, 10}, span{"a", 0, 1, 5}, span{"b", 0, 4, 9}),
		"outside": mk(span{"root", -1, 0, 10}, span{"a", 0, 8, 12}),
	} {
		if _, err := tr.selfTimes(); err == nil {
			t.Errorf("%s: reconciled", name)
		}
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"encoding/json.Unmarshal", "hivempi/internal/storage.readORCFooter", "hivempi/internal/exec.run"}, "storage"},
		{[]string{"hivempi/internal/obs/comm.SkewOf", "hivempi/internal/hive.(*Driver).Run"}, "obs"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"sort.Slice", "main.matchRows"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
