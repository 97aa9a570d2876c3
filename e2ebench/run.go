package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"hivempi/internal/dfs"
	"hivempi/internal/hive"
	"hivempi/internal/metrics"
	"hivempi/internal/perfmodel"
	"hivempi/internal/storage"
)

// The untraced run sets the dataset up at least minSetups times and
// until setupBudget is spent (at most maxSetups); setup_s is the median.
// A cheap set-up is repeated more, so its median is as steady as a
// costly one's.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

type options struct {
	seed     int64
	seconds  time.Duration
	spillDir string
}

// session is one loaded dataset and the single client driving it.
type session struct {
	w      *workload
	d      *hive.Driver
	params perfmodel.Params
	tr     *tracer
}

// setup builds a fresh cluster and loads the workload's dataset.
func (w *workload) setup(o options, tr *tracer) (*session, error) {
	d := w.newDriver(o.spillDir)
	d.ProfileLabels = tr != nil
	if err := w.data.load(d, o.seed, w.format, tr); err != nil {
		return nil, err
	}
	return &session{w: w, d: d, params: w.params(), tr: tr}, nil
}

// clocks is a snapshot of the process's wall, CPU and allocation
// counters.
type clocks struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readClocks() clocks {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return clocks{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's maximum resident set size so far.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss << 10 // Linux reports KiB
}

// streamStats is one pass over the workload's statement list. Costs
// cover Driver.Run and the perfmodel replay; reference checks are
// excluded.
type streamStats struct {
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	virtual   float64
	latencies []time.Duration // one per query
	counters  map[string]int64
	attempted int
	failed    int
}

// record counts one query outcome; err is nil when it ran and matched
// its reference.
func (st *streamStats) record(name string, err error) {
	st.attempted++
	if err != nil {
		st.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: %s failed: %v\n", name, err)
	}
}

// addCounters sums one statement's Result.Metrics counter deltas.
// Distribution quantiles and sampled gauges do not sum and are skipped.
func (st *streamStats) addCounters(m map[string]int64) {
	for k, v := range m {
		if metrics.IsDistributionKey(k) || strings.HasPrefix(k, "imstore.") {
			continue
		}
		st.counters[k] += v
	}
}

// planCacheLookups is the per-stream count of plan-cache lookups, hits
// plus misses.
const planCacheLookups = "hive.plancache.lookups"

func (s *session) runStream(qs []query) *streamStats {
	st := &streamStats{counters: map[string]int64{}}
	// Plan-cache lookups are counted before a statement's metrics
	// snapshot starts, so they never reach Result.Metrics; take them
	// from the registry around the whole stream instead.
	reg := s.d.Env.Metrics
	hits, misses := reg.Counter(metrics.CtrPlanCacheHits), reg.Counter(metrics.CtrPlanCacheMisses)
	h0, m0 := hits.Value(), misses.Value()
	sp := s.tr.begin("stream")
	for i := range qs {
		s.runQuery(&qs[i], st)
	}
	s.tr.end(sp)
	st.counters[metrics.CtrPlanCacheHits] = hits.Value() - h0
	st.counters[planCacheLookups] = hits.Value() - h0 + misses.Value() - m0
	return st
}

func (s *session) runQuery(q *query, st *streamStats) {
	sp := s.tr.begin("query." + q.name)
	defer s.tr.end(sp)
	s.d.Collector.Reset()
	before := readClocks()
	results, err := s.execute(q.sql)
	if err == nil {
		st.virtual += s.replay()
	}
	after := readClocks()
	lat := after.wall.Sub(before.wall)
	st.wall += lat
	st.latencies = append(st.latencies, lat)
	st.cpu += after.cpu - before.cpu
	st.alloc += after.alloc - before.alloc
	st.gcs += after.gcs - before.gcs
	for _, r := range results {
		st.addCounters(r.Metrics)
	}
	csp := s.tr.begin("check")
	bad := q.verify(results, err)
	s.tr.end(csp)
	st.record(q.name, bad)
}

// execute runs a query's statements. Traced, each statement is first
// compiled alone by a plain EXPLAIN (which the plan cache never
// serves), so compile time shows as its own span.
func (s *session) execute(sql string) ([]*hive.Result, error) {
	if s.tr == nil {
		return s.d.Run(sql)
	}
	var out []*hive.Result
	for _, stmt := range hive.SplitStatements(sql) {
		sp := s.tr.begin("explain")
		_, err := s.d.Execute("EXPLAIN " + stmt)
		s.tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("explain: %w", err)
		}
		sp = s.tr.begin("execute")
		res, err := s.d.Execute(stmt)
		s.tr.end(sp)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// replay prices the collected traces with the perfmodel: the query's
// virtual seconds, the paper-figure metric.
func (s *session) replay() float64 {
	sp := s.tr.begin("simulate")
	defer s.tr.end(sp)
	var v float64
	for _, q := range s.d.Collector.Queries() {
		v += s.params.SimulateQuery(q).Total
	}
	return v
}

// loop is the closed loop: one client runs the statement list back to
// back until the measuring time is used, and at least once.
func (s *session) loop(qs []query, d time.Duration) []*streamStats {
	runtime.GC()
	deadline := time.Now().Add(d)
	var out []*streamStats
	for len(out) == 0 || time.Now().Before(deadline) {
		out = append(out, s.runStream(qs))
	}
	return out
}

// probe opens and drains every split of the workload's tables through
// storage.OpenSplit, timing the open (for ORC, the footer decode) and
// the scan separately.
func (s *session) probe() (splits int, err error) {
	fs := s.d.Env.FS
	for _, name := range s.w.data.tables() {
		t, err := s.d.MS.Get(name)
		if err != nil {
			return splits, err
		}
		for _, path := range fs.List(t.Location) {
			ss, err := fs.Splits(path, 0)
			if err != nil {
				return splits, err
			}
			for _, split := range ss {
				if err := s.scanSplit(split, t); err != nil {
					return splits, fmt.Errorf("probe %s: %w", split.Path, err)
				}
				splits++
			}
		}
	}
	return splits, nil
}

func (s *session) scanSplit(split dfs.Split, t *hive.Table) error {
	sp := s.tr.begin("storage.open")
	rd, err := storage.OpenSplit(s.d.Env.FS, split, t.Format, t.Schema, nil, nil)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("storage.scan")
	defer s.tr.end(sp)
	for {
		if _, err := rd.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is a run's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) tally(streams []*streamStats) {
	for _, st := range streams {
		r.attempted += st.attempted
		r.failed += st.failed
	}
}

// measure is the untraced run: the end-to-end metrics.
func measure(w *workload, o options) (*report, error) {
	var setups []float64
	var spent time.Duration
	var s *session
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		s = nil // let the previous cluster go before timing the next
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = w.setup(o, nil); err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	qs, err := w.data.stream(o.seed)
	if err != nil {
		return nil, err
	}
	streams := s.loop(qs, o.seconds)
	r := &report{}
	r.tally(streams)
	// Each query's latency is its median over the streams; the p50 is
	// taken over the queries. Pooling all samples instead would put the
	// HiBench median on the edge between two statement kinds.
	perQuery := make([]float64, len(qs))
	for i := range qs {
		perQuery[i] = medianOf(streams, func(st *streamStats) float64 { return ms(st.latencies[i]) })
	}
	walls := make([]string, len(streams))
	for i, st := range streams {
		walls[i] = fmt.Sprintf("%.3f", st.wall.Seconds())
	}
	r.add("setup_s", median(setups), "s")
	r.add("stream_s", medianOf(streams, func(st *streamStats) float64 { return st.wall.Seconds() }), "s")
	r.add("query_p50_ms", median(perQuery), "ms")
	r.add("stream_cpu_s", medianOf(streams, func(st *streamStats) float64 { return st.cpu.Seconds() }), "s")
	r.add("alloc_mb", medianOf(streams, func(st *streamStats) float64 { return float64(st.alloc) / 1e6 }), "MB")
	r.add("peak_rss_mb", float64(peakRSSBytes())/1e6, "MB")
	r.add("virtual_s", medianOf(streams, func(st *streamStats) float64 { return st.virtual }), "s")
	r.notes = append(r.notes,
		fmt.Sprintf("setups=%d streams=%d queries=%d latency samples=%d", len(setups), len(streams), len(qs), len(qs)*len(streams)),
		"stream walls (s): "+strings.Join(walls, " "),
		fmt.Sprintf("failed_frac=%d/%d", r.failed, r.attempted))
	return r, nil
}

// traceRun is the traced run: spans around every public call, a CPU
// profile of the streams and the storage probe give the per-layer
// metrics.
func traceRun(w *workload, o options) (*report, error) {
	tr := newTracer()
	root := tr.begin("workload")
	sp := tr.begin("setup")
	s, err := w.setup(o, tr)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Every DFS write so far belongs to the load.
	setupWrites := s.d.Env.Metrics.Counter(metrics.CtrDFSWriteBytes).Value()
	sp = tr.begin("reference")
	qs, err := w.data.stream(o.seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	streams := s.loop(qs, o.seconds)
	pprof.StopCPUProfile()
	sp = tr.begin("probe")
	splits, err := s.probe()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if _, err := tr.selfTimes(); err != nil {
		return nil, fmt.Errorf("span reconciliation: %w", err)
	}
	cpu, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	n := float64(len(streams))
	r := &report{}
	r.tally(streams)
	r.add("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.add("traced.stream_s", medianOf(streams, func(st *streamStats) float64 { return st.wall.Seconds() }), "s")
	r.add("datagen.gen_s", tr.total("datagen.").Seconds(), "s")
	r.add("load.write_s", tr.total("load.").Seconds(), "s")
	r.add("dfs.write.bytes", float64(setupWrites), "bytes")
	r.add("hive.compile_ms", ms(tr.total("explain"))/n, "ms")
	r.add("perfmodel.replay_ms", ms(tr.total("simulate"))/n, "ms")
	r.add("storage.splits", float64(splits), "count")
	r.add("storage.open_ms_per_split", ms(tr.total("storage.open"))/float64(splits), "ms")
	r.add("storage.scan_ms_per_split", ms(tr.total("storage.scan"))/float64(splits), "ms")
	r.add("gc.cycles", medianOf(streams, func(st *streamStats) float64 { return float64(st.gcs) }), "count")

	counter := func(key string) float64 {
		return medianOf(streams, func(st *streamStats) float64 { return float64(st.counters[key]) })
	}
	for _, c := range []struct{ name, key, unit string }{
		{"dfs.read.bytes", metrics.CtrDFSReadBytes, "bytes"},
		{"shuffle.bytes", metrics.CtrShuffleOutBytes, "bytes"},
		{"spill.bytes", metrics.CtrSpillBytes, "bytes"},
		{"spill.count", metrics.CtrSpillCount, "count"},
		{"kvio.write.bytes", metrics.HistRunWriteBytes + ".sum", "bytes"},
		{"datampi.spill.pairs", metrics.CtrMPISpillPairs, "count"},
		{"datampi.flushes", metrics.CtrMPISendFlushes, "count"},
		{"datampi.forced.flushes", metrics.CtrMPIForcedFlushes, "count"},
		{"hive.plancache.hits", metrics.CtrPlanCacheHits, "count"},
		{"hive.plancache.lookups", planCacheLookups, "count"},
	} {
		r.add(c.name, counter(c.key), c.unit)
	}
	// Ratios are over all streams' totals; their base counts are above.
	ratio := func(num, den string) float64 {
		var a, b int64
		for _, st := range streams {
			a, b = a+st.counters[num], b+st.counters[den]
		}
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.add("datampi.forced_flush_ratio", ratio(metrics.CtrMPIForcedFlushes, metrics.CtrMPISendFlushes), "ratio")
	r.add("hive.plancache.hit_ratio", ratio(metrics.CtrPlanCacheHits, planCacheLookups), "ratio")

	r.add("cpu.samples", float64(cpu.samples)/n, "count")
	r.add("cpu.total_s", float64(cpu.nanos)/1e9/n, "s")
	for _, l := range layers {
		r.add("cpu."+l+"_s", float64(cpu.layerNanos[l])/1e9/n, "s")
	}
	r.notes = append(r.notes, fmt.Sprintf("traced streams=%d spans=%d; per-stream values are medians, cpu.* are profile seconds per stream",
		len(streams), len(tr.spans)))
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianOf(streams []*streamStats, f func(*streamStats) float64) float64 {
	xs := make([]float64, len(streams))
	for i, st := range streams {
		xs[i] = f(st)
	}
	return median(xs)
}
