package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// stamp describes where and how a result was measured; it is printed
// with every result and stored with the spans.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Host       string `json:"host"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Shards     int    `json:"shards"`
	Clients    int    `json:"clients"`
	Scenarios  int    `json:"scenarios"`
	Iterations int    `json:"iterations"`
	SetupReps  int    `json:"setup_reps"`

	// ReportDigest is the SHA-256 of the simulated statistics; equal
	// digests mean a change did not move any simulated result.
	ReportDigest string `json:"report_digest"`
	// LatencySamples is the number of request latencies behind the
	// percentiles; MinBeyondP95 the fewest samples above the 95th
	// percentile in any one scenario.
	LatencySamples uint64   `json:"latency_samples"`
	MinBeyondP95   uint64   `json:"min_samples_beyond_p95"`
	Problems       []string `json:"problems,omitempty"`
}

func newStamp(cfg config) stamp {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return stamp{
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		Host:       host,
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Clients:    cfg.workload.clients,
		Scenarios:  len(cfg.scenarios),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkLoad refuses a workload whose clients would outnumber the
// processors the Go runtime may use: they would time-share one core and
// the result would measure the host's scheduler, not the simulator.
func checkLoad(w workloadDef) error {
	if procs := runtime.GOMAXPROCS(0); w.clients > procs {
		return fmt.Errorf("workload %s runs %d concurrent clients but GOMAXPROCS is %d", w.name, w.clients, procs)
	}
	return nil
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
