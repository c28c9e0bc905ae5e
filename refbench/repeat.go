package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times in child processes, on seeds
// 1..n, then once more on seed 1. It prints each metric's median,
// quartiles and spread — the distance between the quartiles as a share
// of the median, the figure the bounds in BENCHMARK.json are derived
// from. It fails if the counted quantities of the two seed-1 runs
// differ, and lists any failed operations (none are expected).
func repeatRuns(workload string, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var first map[string]float64
	var failed []string
	for i := 1; i <= n+1; i++ {
		seed := i
		if i == n+1 {
			seed = 1
		}
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) < 2 {
			return fmt.Errorf("seed %d: no result", seed)
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var counts map[string]float64
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "counts ")), &counts); err != nil {
			return fmt.Errorf("seed %d: counts: %w", seed, err)
		}
		fmt.Fprintf(os.Stderr, "seed %d: correct=%v attempted=%d failed=%d", seed, rep.Correct, rep.Attempted, rep.Failed)
		for _, k := range sortedKeys(rep.Metrics) {
			fmt.Fprintf(os.Stderr, " %s=%.4g", k, rep.Metrics[k].Value)
		}
		fmt.Fprintln(os.Stderr)
		if !rep.Correct {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("seed %d: wrong answers", seed)
		}
		if rep.Failed != 0 {
			failed = append(failed, fmt.Sprintf("seed %d: %d of %d", seed, rep.Failed, rep.Attempted))
		}
		if i == 1 {
			first = counts
		}
		if i == n+1 {
			for k, v := range first {
				if counts[k] != v {
					return fmt.Errorf("counted quantity %s differs between two seed-1 runs: %v then %v", k, v, counts[k])
				}
			}
			break
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Printf("%-32s %14s %14s %14s %8s  (%s, %d seeds, %gs)\n", "metric", "median", "q1", "q3", "spread", workload, n, seconds)
	for _, k := range sortedKeys(values) {
		q := quartiles(values[k])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-32s %14.4f %14.4f %14.4f %8.4f  %s\n", k, q[1], q[0], q[2], spread, units[k])
	}
	if len(failed) > 0 {
		fmt.Printf("failed operations: %s\n", strings.Join(failed, "; "))
	}
	fmt.Println("counted quantities repeat exactly for seed 1")
	return nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(data, n=4) with its default exclusive method.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	var out [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
