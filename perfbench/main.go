// Command perfbench is the PReCinCt simulator's benchmark: host seconds
// per simulated second and completed requests per host second on three
// workloads, with an output-correctness gate and, in a separate traced
// run, a split of the work across the simulator's layers.
//
// It drives only the library's public entry points (RunWithStats,
// RunTraced, Scenario.Validate, internal/pool.Run and each layer's
// constructors) and measures sequential execution (Shards 0).
//
//	perfbench --workload paper-consistency --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, with --trace 1 the per-layer set (see README.md).
// A correctness failure prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir holds the span files, relative to the directory the benchmark
// runs in (the checkout root); it sits inside the build directory that
// the launcher already keeps out of version control.
const outDir = ".bench_build/perfbench-out"

func main() {
	name := flag.String("workload", "", "workload to run: paper-consistency, city-4k or fig6-8-sweep")
	seed := flag.Int64("seed", 1, "workload seed; every scenario of the workload is seeded from it")
	seconds := flag.Float64("seconds", 25, "how long the closed loop of untraced passes lasts")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traceMode); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceMode int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if traceMode != 0 && traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceMode)
	}
	if seconds < 0 {
		return fmt.Errorf("--seconds must not be negative, got %v", seconds)
	}
	if err := checkLoad(w); err != nil {
		return err
	}
	cfg := config{workload: w, seed: seed, seconds: seconds, traced: traceMode == 1, scenarios: w.scenarios(seed)}
	out, err := bench(cfg)
	if err != nil {
		return err
	}
	if err := writeSpans(out); err != nil {
		return err
	}
	stamp, err := json.Marshal(map[string]any{"stamp": out.stamp})
	if err != nil {
		return fmt.Errorf("encode stamp: %w", err)
	}
	fmt.Println(string(stamp))
	line, err := json.Marshal(out.result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !out.result.Correct {
		os.Exit(1)
	}
	return nil
}

// writeSpans stores the run's spans, written once the measurement is
// over so the file I/O stays out of every timed interval.
func writeSpans(out output) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	mode := "e2e"
	if out.stamp.Traced {
		mode = "traced"
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-%s-%d.json",
		out.stamp.Workload, out.stamp.Seed, mode, time.Now().UnixNano()))
	data, err := json.MarshalIndent(map[string]any{"stamp": out.stamp, "spans": out.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
