package hadoop

import (
	"testing"

	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// BenchmarkMapTaskOneSpill runs one map task that fits its sort buffer:
// 2,000 (bigint key, 4-column row) pairs over 8 reduces are collected,
// sorted and spilled once, and the spill is published as the task's
// output. This is the shape of nearly every map task of the TPC-H
// text/Hadoop workload.
func BenchmarkMapTaskOneSpill(b *testing.B) {
	const pairs, reduces = 2000, 8
	job, err := NewJob(Config{NumMaps: 1, NumReduces: reduces, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, pairs)
	values := make([][]byte, pairs)
	for i := range keys {
		k := int64((i * 7919) % 1500)
		keys[i] = types.EncodeKey(nil, []types.Datum{types.Int(k)}, nil)
		values[i] = types.EncodeRow(nil, types.Row{types.Int(k), types.Float(float64(i) / 4),
			types.String("DELIVER IN PERSON"), types.Date(int64(9000 + i%900))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &MapContext{job: job, metrics: &trace.Task{Kind: trace.KindMap,
			CollectSizes: trace.NewSizeHistogram(), PartitionBytes: make([]int64, reduces)}}
		for p := range keys {
			if err := m.Emit(keys[p], values[p]); err != nil {
				b.Fatal(err)
			}
		}
		mo, err := m.close()
		if err != nil {
			b.Fatal(err)
		}
		if m.metrics.SpillCount != 1 {
			b.Fatalf("map spilled %d times, want 1", m.metrics.SpillCount)
		}
		removeFile(mo.file)
	}
}
