package hadoop

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"hivempi/internal/trace"
)

// pinMapCount is the pin jobs' map count. Map 0 emits nothing, map 1
// emits a handful of pairs (one spill), maps 2 and 3 overflow the sort
// buffer many times, and map 4 emits exactly one spill's worth with
// duplicate keys.
const (
	pinMapCount    = 5
	pinReduceCount = 3
	pinSortBuffer  = 512
)

// pinMapBody emits the pin jobs' deterministic per-task workload.
func pinMapBody(m *MapContext) error {
	var n int
	switch m.TaskID() {
	case 0:
		n = 0
	case 1:
		n = 7
	case 2:
		n = 400
	case 3:
		n = 900
	case 4:
		n = 20
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%03d", (i*37+m.TaskID()*11)%53)
		v := strconv.Itoa(i + m.TaskID())
		if err := m.Emit([]byte(k), []byte(v)); err != nil {
			return err
		}
	}
	return nil
}

func pinSumCombiner(_ []byte, values [][]byte) [][]byte {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	return [][]byte{[]byte(strconv.Itoa(total))}
}

func hashBytes(h hash.Hash, b []byte) {
	h.Write(binary.AppendUvarint(nil, uint64(len(b))))
	h.Write(b)
}

func hashInts(h hash.Hash, vs ...int64) {
	for _, v := range vs {
		h.Write(binary.AppendVarint(nil, v))
	}
}

func hashTask(h hash.Hash, t *trace.Task) {
	hashInts(h, t.SpillCount, t.SpillBytes, t.MergeRuns, t.ShuffleOutBytes,
		t.ShuffleOutPairs, t.ShuffleInBytes, t.ShuffleInPairs,
		t.CombineInPairs, t.CombineOutPairs, t.ReduceGroups)
	hashInts(h, t.PartitionBytes...)
	hashInts(h, int64(len(t.SendEvents)))
	for _, ev := range t.SendEvents {
		hashInts(h, int64(ev.Bytes))
		h.Write([]byte(strconv.FormatFloat(ev.Progress, 'g', -1, 64)))
	}
}

// runPinJob runs the pin workload and returns a digest over every
// (map, partition) segment of the published map outputs, the map and
// reduce trace counters, and the reduce groups. Segments are read
// inside the reduce body, while the outputs are still live. inspect,
// when non-nil, runs once per reduce body with the job's spill dir.
func runPinJob(t *testing.T, comb Combiner, inspect func(dir string)) string {
	t.Helper()
	dir := t.TempDir()
	job, err := NewJob(Config{NumMaps: pinMapCount, NumReduces: pinReduceCount,
		SortBufferBytes: pinSortBuffer, Combiner: comb, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	segs := make([][][]byte, pinMapCount)
	for m := range segs {
		segs[m] = make([][]byte, pinReduceCount)
	}
	groups := make([][]byte, pinReduceCount)
	var mu sync.Mutex
	err = job.Run(pinMapBody, func(r *ReduceContext) error {
		for m, mo := range r.job.mapOutputs {
			seg, err := mo.partition(r.TaskID())
			if err != nil {
				return err
			}
			mu.Lock()
			segs[m][r.TaskID()] = seg
			mu.Unlock()
		}
		if inspect != nil {
			mu.Lock()
			inspect(dir)
			mu.Unlock()
		}
		h := sha256.New()
		for {
			k, vs, err := r.NextGroup()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			hashBytes(h, k)
			hashInts(h, int64(len(vs)))
			for _, v := range vs {
				hashBytes(h, v)
			}
		}
		groups[r.TaskID()] = h.Sum(nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for m := range segs {
		for p := range segs[m] {
			hashInts(h, int64(m), int64(p))
			hashBytes(h, segs[m][p])
		}
	}
	for _, mt := range job.MapMetrics() {
		hashTask(h, mt)
	}
	for _, rt := range job.ReduceMetrics() {
		hashTask(h, rt)
	}
	for _, g := range groups {
		h.Write(g)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinMapSpillShapes checks the pin workload covers every spill shape
// the map side publishes differently.
func TestPinMapSpillShapes(t *testing.T) {
	job, err := NewJob(Config{NumMaps: pinMapCount, NumReduces: pinReduceCount,
		SortBufferBytes: pinSortBuffer, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Run(pinMapBody, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "1", "many", "many", "1"}
	for m, mt := range job.MapMetrics() {
		got := strconv.FormatInt(mt.SpillCount, 10)
		if mt.SpillCount > 1 {
			got = "many"
		}
		if got != want[m] {
			t.Errorf("map %d spilled %d times, want %s", m, mt.SpillCount, want[m])
		}
	}
}

// TestPinMapOutputDigest pins the published map output bytes, the trace
// counters and the reduce groups. The digests were recorded when every
// map output was a merged copy of its spills; publishing a lone spill
// directly must not change a byte.
func TestPinMapOutputDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		comb Combiner
		want string
	}{
		{"plain", nil, "89038d31f76f51ed2dc7543f8d06a8271523c524e37943072cf62905c514148a"},
		{"combiner", pinSumCombiner, "3cea040fd1a9fa729c3a13330d2e456416edf22fc83df7e12f1261bf9de6e513"},
	} {
		if got := runPinJob(t, tc.comb, nil); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestLoneSpillIsTheMapOutput checks, while the map outputs are live,
// that the spill dir holds one file per map task that spilled (a lone
// spill is published in place, several are merged into one file) and
// none for the task that emitted nothing.
func TestLoneSpillIsTheMapOutput(t *testing.T) {
	runPinJob(t, nil, func(dir string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Error(err)
			return
		}
		if len(ents) != pinMapCount-1 {
			names := make([]string, len(ents))
			for i, e := range ents {
				names[i] = e.Name()
			}
			t.Errorf("spill dir holds %d files %v, want %d", len(ents), names, pinMapCount-1)
		}
	})
}

// TestSpillDirEmptyAfterRun checks that no spill or map output file
// outlives Run: after a clean job, after a map attempt that spilled and
// failed before a retry succeeded, and after a job that failed.
func TestSpillDirEmptyAfterRun(t *testing.T) {
	drain := func(r *ReduceContext) error {
		for {
			if _, _, err := r.NextGroup(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	var failedOnce sync.Map
	for _, tc := range []struct {
		name     string
		attempts int
		body     MapBody
		wantErr  bool
	}{
		{"clean", 1, pinMapBody, false},
		{"retried", 2, func(m *MapContext) error {
			if err := pinMapBody(m); err != nil {
				return err
			}
			if _, again := failedOnce.LoadOrStore(m.TaskID(), true); !again && m.metrics.SpillCount > 0 {
				return fmt.Errorf("fail map %d after spilling", m.TaskID())
			}
			return nil
		}, false},
		{"failed", 1, func(m *MapContext) error {
			if err := pinMapBody(m); err != nil {
				return err
			}
			if m.TaskID() == 3 {
				return fmt.Errorf("fail map %d after spilling", m.TaskID())
			}
			return nil
		}, true},
	} {
		dir := t.TempDir()
		job, err := NewJob(Config{NumMaps: pinMapCount, NumReduces: pinReduceCount,
			SortBufferBytes: pinSortBuffer, MaxAttempts: tc.attempts, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Run(tc.body, drain); (err != nil) != tc.wantErr {
			t.Fatalf("%s: Run error %v, want error %v", tc.name, err, tc.wantErr)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("%s: %s left in the spill dir", tc.name, e.Name())
		}
	}
}
