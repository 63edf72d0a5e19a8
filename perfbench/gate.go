package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"precinct"
)

// The output-correctness gate. A run of the benchmark is correct only
// when every simulation conserves requests, tracing leaves the results
// untouched, and every repetition of the workload reproduces the same
// simulated statistics (one report digest per workload and seed).

// checkConservation reports every result whose requests are not all
// accounted for as completed or failed.
func checkConservation(results []precinct.Result) []string {
	var problems []string
	for _, r := range results {
		rep := r.Report
		if rep.Requests != rep.Completed+rep.Failures {
			problems = append(problems, fmt.Sprintf("%s: requests %d != completed %d + failures %d",
				r.Scenario.Name, rep.Requests, rep.Completed, rep.Failures))
		}
	}
	return problems
}

// checkSameResults reports every scenario whose traced result differs
// from its untraced one; tracing must observe the run, not perturb it.
func checkSameResults(untraced, traced []precinct.Result) []string {
	if len(untraced) != len(traced) {
		return []string{fmt.Sprintf("traced run produced %d results, untraced %d", len(traced), len(untraced))}
	}
	var problems []string
	for i := range untraced {
		u, t := untraced[i], traced[i]
		if !reflect.DeepEqual(u.Report, t.Report) || u.Protocol != t.Protocol || u.Radio != t.Radio {
			problems = append(problems, fmt.Sprintf("%s: traced result differs from untraced", u.Scenario.Name))
		}
	}
	return problems
}

// digested is the part of a run that the simulation computes: every
// counter and statistic, but not the scenario (an input) or host timing.
type digested struct {
	Name     string
	Report   precinct.Report
	Protocol precinct.ProtocolStats
	Radio    precinct.RadioStats
}

// reportDigest is the SHA-256 of a workload iteration's simulated
// statistics, in scenario order. JSON renders map keys sorted and floats
// in their shortest exact form, so equal statistics give equal digests.
func reportDigest(results []precinct.Result) (string, error) {
	d := make([]digested, len(results))
	for i, r := range results {
		d[i] = digested{Name: r.Scenario.Name, Report: r.Report, Protocol: r.Protocol, Radio: r.Radio}
	}
	data, err := json.Marshal(d)
	if err != nil {
		return "", fmt.Errorf("report digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigests reports whether every iteration reproduced the first
// iteration's digest, returning that digest.
func checkDigests(iters [][]precinct.Result) (string, []string, error) {
	var first string
	var problems []string
	for i, results := range iters {
		d, err := reportDigest(results)
		if err != nil {
			return "", nil, err
		}
		if i == 0 {
			first = d
		} else if d != first {
			problems = append(problems, fmt.Sprintf("iteration %d digest %s != iteration 0 digest %s", i, d, first))
		}
	}
	return first, problems, nil
}
