// Command e2ebench is the repository's end-to-end wall-clock benchmark.
// It loads a workload's dataset through the public tpch.Load or
// hibench.Load and hive.Driver API, runs the workload's statement list
// in a closed loop with one client (the next statement starts only
// after the previous one completes), checks every result against an
// independent reference, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// Run it from the module root that holds this directory:
//
//	bash e2ebench/run.sh --workload tpch-orc-datampi --seed 42 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics. README.md in this
// directory says why each workload is there and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fl.String("workload", "tpch-orc-datampi", "workload name")
	seed := fl.Int64("seed", 42, "dataset seed")
	seconds := fl.Int("seconds", 15, "how long the closed loop measures")
	traced := fl.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	spillRoot := fl.String("spill-dir", ".bench_build", "directory for the engines' local spill files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	spill, err := spillDir(*spillRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(spill)
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, spillDir: spill}

	var r *report
	if *traced == 1 {
		r, err = traceRun(w, o)
	} else {
		r, err = measure(w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("workload %s (seed %d, %s, %s on %s, spill dir on %s)\n",
		w.name, *seed, w.data.describe(), w.format, w.engine, fsKind(spill))
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Printf("  %-28s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// spillDir makes a fresh directory for the engines' local spill files
// under root. run.sh passes a private memory-backed mount inside the
// checkout when the system allows one: spill on a disk filesystem costs
// a metadata round trip per spill file and is far noisier. The
// filesystem used is printed with the results.
func spillDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "spill-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// fsKind names the filesystem type behind dir.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	if st.Type == 0x01021994 { // TMPFS_MAGIC
		return "tmpfs (memory)"
	}
	return fmt.Sprintf("disk (fs type %#x)", st.Type)
}
