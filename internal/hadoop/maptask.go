package hadoop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// MapContext is the handle given to a map task body. Emit is the
// OutputCollector.collect analogue: pairs accumulate in the map-side
// sort buffer and are sorted and spilled to local disk when the buffer
// fills, exactly like Hadoop's MapOutputBuffer.
type MapContext struct {
	job     *Job
	taskID  int
	metrics *trace.Task

	pairs      []mapPair
	pairBytes  int
	spills     []*spillFile
	emitCount  int64
	flushMarks []int64
}

type mapPair struct {
	part int
	kv   kvio.KV
}

// spillFile is one sorted run on local disk with per-partition offsets.
type spillFile struct {
	file    *os.File
	offsets []int64 // len NumReduces+1
}

func (j *Job) newMapContext(taskID int) *MapContext {
	return &MapContext{job: j, taskID: taskID, metrics: j.mapMetrics[taskID]}
}

// TaskID returns the map task's index.
func (m *MapContext) TaskID() int { return m.taskID }

// NumReduces returns the job's reduce count.
func (m *MapContext) NumReduces() int { return m.job.cfg.NumReduces }

// Metrics exposes the task's trace record for engine-side counters.
func (m *MapContext) Metrics() *trace.Task { return m.metrics }

// Emit collects one intermediate pair.
func (m *MapContext) Emit(key, value []byte) error {
	if m.job.cfg.NumReduces == 0 {
		return errors.New("hadoop: Emit on a map-only job")
	}
	part := m.job.cfg.Partitioner(key, m.job.cfg.NumReduces)
	if part < 0 || part >= m.job.cfg.NumReduces {
		return fmt.Errorf("hadoop: partitioner returned %d for %d reduces", part, m.job.cfg.NumReduces)
	}
	kv := kvio.KV{
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	}
	m.pairs = append(m.pairs, mapPair{part: part, kv: kv})
	sz := kv.WireSize()
	m.pairBytes += sz
	m.metrics.CollectSizes.Observe(len(key) + len(value))
	m.metrics.ShuffleOutPairs++
	m.metrics.PartitionBytes[part] += int64(sz)
	m.emitCount++
	if m.pairBytes >= m.job.cfg.SortBufferBytes {
		return m.sortAndSpill()
	}
	return nil
}

// sortAndSpill sorts the buffer by (partition, key) and writes one spill
// run with a partition index, applying the combiner when configured.
func (m *MapContext) sortAndSpill() error {
	if len(m.pairs) == 0 {
		return nil
	}
	slices.SortStableFunc(m.pairs, compareMapPairs)
	f, err := os.CreateTemp(m.job.cfg.SpillDir, "hadoop-spill-*.run")
	if err != nil {
		return fmt.Errorf("hadoop: create spill: %w", err)
	}
	kw := kvio.NewWriter(f)
	offsets := make([]int64, m.job.cfg.NumReduces+1)
	i := 0
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		offsets[p] = kw.BytesWritten()
		j := i
		for j < len(m.pairs) && m.pairs[j].part == p {
			j++
		}
		if err := m.writePartition(kw, m.pairs[i:j]); err != nil {
			removeFile(f)
			return err
		}
		i = j
	}
	offsets[m.job.cfg.NumReduces] = kw.BytesWritten()
	if err := kw.Flush(); err != nil {
		removeFile(f)
		return fmt.Errorf("hadoop: flush spill: %w", err)
	}
	m.metrics.SpillCount++
	m.metrics.SpillBytes += kw.BytesWritten()
	m.flushMarks = append(m.flushMarks, m.emitCount)
	m.spills = append(m.spills, &spillFile{file: f, offsets: offsets})
	m.pairs = nil
	m.pairBytes = 0
	return nil
}

// compareMapPairs orders the sort buffer by (partition, key).
func compareMapPairs(a, b mapPair) int {
	if a.part != b.part {
		return a.part - b.part
	}
	return bytes.Compare(a.kv.Key, b.kv.Key)
}

// writePartition writes one partition's sorted pairs, combining first
// when a combiner is configured.
func (m *MapContext) writePartition(kw *kvio.Writer, pairs []mapPair) error {
	if m.job.cfg.Combiner == nil {
		for _, p := range pairs {
			if err := kw.Write(p.kv); err != nil {
				return fmt.Errorf("hadoop: write spill: %w", err)
			}
		}
		return nil
	}
	i := 0
	for i < len(pairs) {
		j := i + 1
		for j < len(pairs) && bytes.Equal(pairs[j].kv.Key, pairs[i].kv.Key) {
			j++
		}
		vals := make([][]byte, 0, j-i)
		for k := i; k < j; k++ {
			vals = append(vals, pairs[k].kv.Value)
		}
		m.metrics.CombineInPairs += int64(j - i)
		for _, v := range m.job.cfg.Combiner(pairs[i].kv.Key, vals) {
			if err := kw.Write(kvio.KV{Key: pairs[i].kv.Key, Value: v}); err != nil {
				return fmt.Errorf("hadoop: write combined spill: %w", err)
			}
			m.metrics.CombineOutPairs++
		}
		i = j
	}
	return nil
}

// close runs the final spill and publishes the task's partition-indexed
// output (Hadoop's mergeParts to file.out). A lone spill already is that
// output, so it is published in place, as mergeParts renames spill0.out;
// a task that emitted nothing publishes an all-empty index and no file;
// several spills are k-way merged into one new file.
func (m *MapContext) close() (*mapOutput, error) {
	if m.job.cfg.NumReduces == 0 {
		return nil, nil
	}
	if err := m.sortAndSpill(); err != nil {
		return nil, err
	}
	runs := len(m.spills)
	var out *mapOutput
	switch runs {
	case 0:
		out = &mapOutput{offsets: make([]int64, m.job.cfg.NumReduces+1)}
	case 1:
		out = &mapOutput{file: m.spills[0].file, offsets: m.spills[0].offsets}
	default:
		var err error
		if out, err = m.mergeSpills(); err != nil {
			return nil, err
		}
		m.abandon()
	}
	m.metrics.ShuffleOutBytes = out.offsets[m.job.cfg.NumReduces]
	m.metrics.MergeRuns = int64(runs)
	// Timeline reconstruction mirrors datampi: progress fraction at
	// each spill.
	for _, mark := range m.flushMarks {
		prog := 1.0
		if m.emitCount > 0 {
			prog = float64(mark) / float64(m.emitCount)
		}
		m.metrics.SendEvents = append(m.metrics.SendEvents, trace.SendEvent{
			Progress: prog,
			Bytes:    m.metrics.SpillBytes / int64(max(len(m.flushMarks), 1)),
		})
	}
	m.spills = nil
	return out, nil
}

// mergeSpills k-way merges every spill run, partition by partition, into
// a new output file.
func (m *MapContext) mergeSpills() (*mapOutput, error) {
	out, err := os.CreateTemp(m.job.cfg.SpillDir, "hadoop-mapout-*.out")
	if err != nil {
		return nil, fmt.Errorf("hadoop: create map output: %w", err)
	}
	offsets, err := m.mergeInto(kvio.NewWriter(out))
	if err != nil {
		removeFile(out)
		return nil, err
	}
	return &mapOutput{file: out, offsets: offsets}, nil
}

func (m *MapContext) mergeInto(kw *kvio.Writer) ([]int64, error) {
	offsets := make([]int64, m.job.cfg.NumReduces+1)
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		offsets[p] = kw.BytesWritten()
		sources := make([]kvio.Source, 0, len(m.spills))
		for _, sp := range m.spills {
			lo, hi := sp.offsets[p], sp.offsets[p+1]
			if hi == lo {
				continue
			}
			buf := make([]byte, hi-lo)
			if _, err := sp.file.ReadAt(buf, lo); err != nil {
				return nil, fmt.Errorf("hadoop: read spill segment: %w", err)
			}
			kvs, err := kvio.DecodeAll(buf)
			if err != nil {
				return nil, err
			}
			sources = append(sources, &kvio.SliceSource{KVs: kvs})
		}
		merge, err := kvio.NewMerge(sources)
		if err != nil {
			return nil, err
		}
		for {
			kv, err := merge.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("hadoop: merge spills: %w", err)
			}
			if err := kw.Write(kv); err != nil {
				return nil, fmt.Errorf("hadoop: write map output: %w", err)
			}
		}
	}
	offsets[m.job.cfg.NumReduces] = kw.BytesWritten()
	if err := kw.Flush(); err != nil {
		return nil, fmt.Errorf("hadoop: flush map output: %w", err)
	}
	return offsets, nil
}

// abandon discards the task's spill files: a failed attempt's, or the
// runs a merge has consumed.
func (m *MapContext) abandon() {
	for _, sp := range m.spills {
		removeFile(sp.file)
	}
	m.spills = nil
}

// removeFile closes and deletes a local spill or output file.
func removeFile(f *os.File) {
	name := f.Name()
	f.Close()
	os.Remove(name)
}

// runMap executes one map task under the slot pool, retrying failed
// attempts up to MaxAttempts (Hadoop's speculative-free re-execution;
// the reduce side never observes a partial attempt because outputs
// publish atomically on success).
func (j *Job) runMap(taskID int, body MapBody) error {
	var lastErr error
	for attempt := 1; attempt <= j.cfg.MaxAttempts; attempt++ {
		ctx := j.newMapContext(taskID)
		if attempt > 1 {
			// Fresh metrics for the re-run so counters aren't doubled.
			host := j.mapMetrics[taskID].Host
			j.mapMetrics[taskID] = &trace.Task{ID: taskID, Kind: trace.KindMap,
				Host: host, CollectSizes: trace.NewSizeHistogram(),
				PartitionBytes: make([]int64, j.cfg.NumReduces)}
			ctx.metrics = j.mapMetrics[taskID]
		}
		// Attempt count survives into the stage trace so the perfmodel
		// can charge re-execution plus per-attempt retry backoff.
		ctx.metrics.Attempts = attempt
		if err := body(ctx); err != nil {
			ctx.abandon()
			lastErr = fmt.Errorf("map %d attempt %d: %w", taskID, attempt, err)
			continue
		}
		mo, err := ctx.close()
		if err != nil {
			ctx.abandon()
			lastErr = fmt.Errorf("map %d attempt %d close: %w", taskID, attempt, err)
			continue
		}
		j.mapOutputs[taskID] = mo
		return nil
	}
	return lastErr
}
