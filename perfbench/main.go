// Command perfbench is marketscope's benchmark: three workloads that drive
// the program only through its public entry points, check every answer, and
// print one JSON result line. See README.md for the workloads, the metrics
// and the layer each metric belongs to.
//
//	perfbench --workload study|ingest|serve --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with outside-in tracing and reports the per-layer metrics, writing the
// spans to .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir is where the benchmark keeps its scratch state, relative to the
// checkout root it runs from.
const buildDir = ".bench_build"

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	work     string // per-run scratch directory
}

// outcome is what a workload returns: the operation tally and its metrics.
type outcome struct {
	attempted, failed int
	metrics           metrics
}

// endToEnd sets the end-to-end metrics every workload reports, each with one
// meaning on all of them; main adds ok_ratio. ops holds the latencies (ms) of
// the workload's operation — a cold study pass, a POST→ack, a read — and
// opsPerS is how many completed per second of the measured phase.
func (o *outcome) endToEnd(setupS, peakRSSMB float64, ops []float64, opsPerS float64) {
	o.metrics.set("setup_s", "s", setupS)
	o.metrics.set("peak_rss_mb", "MB", peakRSSMB)
	o.metrics.set("op_p50_ms", "ms", median(ops))
	o.metrics.set("ops_per_s", "1/s", opsPerS)
}

// ok counts one operation and whether it was verified.
func (o *outcome) ok(good bool) {
	o.attempted++
	if !good {
		o.failed++
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"study":  runStudy,
	"ingest": runIngest,
	"serve":  runServe,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "study, ingest or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 15, "seconds the measured phase runs for")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, known := workloads[cfg.workload]
	if !known || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(buildDir, "run-"+cfg.workload+"-")
	if err != nil {
		fail(err)
	}
	cfg.work = work
	out, err := run(cfg)
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	if !cfg.trace {
		out.metrics.set("ok_ratio", "ratio", float64(out.attempted-out.failed)/float64(out.attempted))
	}
	if err := checkManifest(manifestPath, cfg.trace, out.metrics); err != nil {
		fail(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// manifestPath is the benchmark manifest, relative to the checkout root.
const manifestPath = "BENCHMARK.json"

// checkManifest fails the run unless m holds exactly the manifest's metrics
// of the mode (end_to_end untraced, per_layer traced), each in its unit and
// never zero for an end-to-end metric: a result line missing one is refused,
// so a run must not print it.
func checkManifest(path string, traced bool, m metrics) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := manifest.EndToEnd
	if traced {
		want = manifest.PerLayer
	}
	for _, e := range want {
		got, ok := m[e.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q of %s was not measured", e.Name, path)
		case got.Unit != e.Unit:
			return fmt.Errorf("metric %q in %q, %s says %q", e.Name, got.Unit, path, e.Unit)
		case !traced && got.Value == 0:
			return fmt.Errorf("end-to-end metric %q is 0", e.Name)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics measured, %s lists %d", len(m), path, len(want))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}

// medianSetup runs setup n times and returns the median wall time. Each run
// starts after before (untimed clean-up of the previous run's state, may be
// nil) and a forced GC; the caller keeps the state of the last run.
func medianSetup(n int, before func() error, setup func() error) (float64, error) {
	var walls []float64
	for i := 0; i < n; i++ {
		if before != nil {
			if err := before(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, secs(time.Since(start)))
	}
	return median(walls), nil
}
