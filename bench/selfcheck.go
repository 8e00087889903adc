package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// e2eMetric describes one end-to-end metric: its unit, which direction is
// better, and the share of the reference median by which it may worsen
// before the change counts as a regression. BENCHMARK.json carries the same
// table; a test keeps the two in step.
type e2eMetric struct {
	name, unit string
	higher     bool
	bound      float64
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "ops/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_p95_ms", "ms", false, 0.25},
	{"alloc_mb_per_op", "MB/op", false, 0.02},
}

// The percentile rule: steady latency at rank (p+3) % over rank (p−3) % must
// stay below maxRankRatio, or a class boundary sits under p. Where the rule
// is checked by class instead, minClassShare of the samples at those ranks
// must belong to the expected class; the rest may be another class's
// outliers (a hot request behind a slow fsync).
const (
	maxRankRatio  = 1.3
	minClassShare = 0.9
)

// detail is the machine-readable line an end-to-end run prints before its
// result, for -selfcheck to read.
type detail struct {
	Passes    int     `json:"passes"`
	RankP50   float64 `json:"rank_ratio_p50"`
	RankP95   float64 `json:"rank_ratio_p95"`
	P95Class  string  `json:"p95_class"` // the majority class at ranks 92–98 % and its share
	P95Share  float64 `json:"p95_class_share"`
	OpsInPass int     `json:"ops_in_pass"`
}

const detailPrefix = "detail: "

// selfcheck answers "is the benchmark steady on this box?": each workload
// runs as two interleaved sets of runs of this same binary, every run in a
// fresh process with another seed, and the sets are compared under the
// benchmark's own bounds. Identical code must agree with itself before a
// difference between two commits can mean anything.
func selfcheck(o options, stdout, stderr io.Writer) error {
	if o.runs < 2 {
		return fmt.Errorf("-runs %d: need at least 2 runs per set", o.runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failures []string
	for _, info := range workloads {
		if o.workload != "" && o.workload != info.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		var details []detail
		for i := 0; i < 2*o.runs; i++ {
			seed := o.seed + int64(i)
			res, d, err := childRun(exe, info.name, seed, o, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", info.name, seed, err)
			}
			if !res.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %d: run incorrect (%d of %d ops failed)", info.name, seed, res.Failed, res.Attempted))
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			details = append(details, d)
			fmt.Fprintf(stdout, "%s run %d/%d (set %c, seed %d): %d passes\n", info.name, i+1, 2*o.runs, 'A'+rune(i%2), seed, d.Passes)
		}
		fmt.Fprintf(stdout, "\n%s: two interleaved sets of %d runs\n", info.name, o.runs)
		fmt.Fprintf(stdout, "  %-16s %-6s %34s %34s %8s %8s %8s %8s\n", "metric", "unit", "set A  q1 / median / q3", "set B  q1 / median / q3", "spreadA", "spreadB", "spreadAB", "B vs A")
		for _, m := range e2eMetrics {
			a1, a2, a3 := quartiles(sets[0][m.name])
			b1, b2, b3 := quartiles(sets[1][m.name])
			c1, c2, c3 := quartiles(append(append([]float64(nil), sets[0][m.name]...), sets[1][m.name]...))
			spreadA, spreadB, spreadAB := (a3-a1)/a2, (b3-b1)/b2, (c3-c1)/c2
			shift := (b2 - a2) / a2
			fmt.Fprintf(stdout, "  %-16s %-6s %10.4f /%10.4f /%10.4f  %10.4f /%10.4f /%10.4f %7.2f%% %7.2f%% %7.2f%% %+7.2f%%\n",
				m.name, m.unit, a1, a2, a3, b1, b2, b3, 100*spreadA, 100*spreadB, 100*spreadAB, 100*shift)
			if shift < -m.bound || shift > m.bound {
				failures = append(failures, fmt.Sprintf("%s/%s: medians of identical code differ by %+.2f%%, bound %.0f%%", info.name, m.name, 100*shift, 100*m.bound))
			}
			// Set-up time is excused from the spread test (three samples a
			// run), not from the comparison of medians above.
			if m.name != "setup_s" && (spreadA > m.bound || spreadB > m.bound) {
				failures = append(failures, fmt.Sprintf("%s/%s: interquartile spread %.2f%% / %.2f%% exceeds the bound %.0f%%", info.name, m.name, 100*spreadA, 100*spreadB, 100*m.bound))
			}
		}
		failures = append(failures, percentileRule(info.name, details, stdout)...)
		fmt.Fprintln(stdout)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("selfcheck: %d failures", len(failures))
	}
	fmt.Fprintln(stdout, "selfcheck: every pair of sets agrees within its bound, every spread is within its bound, and the percentile rule holds")
	return nil
}

// percentileRule checks, over every run of a workload, that no class
// boundary sits under p50 or p95. For three workloads the test is the rank
// ratio. serve-mixed's p95 sits in the middle of its cold class, which two
// contending clients make wide (its ratio is printed), so there the test is
// the rule itself: ranks 92–98 % must be cold ops.
func percentileRule(workload string, details []detail, stdout io.Writer) []string {
	var p50s, p95s []float64
	var failures []string
	for _, d := range details {
		p50s = append(p50s, d.RankP50)
		p95s = append(p95s, d.RankP95)
		if workload == "serve-mixed" && (d.P95Class != "cold" || d.P95Share < minClassShare) {
			failures = append(failures, fmt.Sprintf("%s: ranks 92–98 %% are %.0f %% %s ops, want at least %.0f %% cold", workload, 100*d.P95Share, d.P95Class, 100*minClassShare))
		}
	}
	r50, r95 := median(p50s), median(p95s)
	fmt.Fprintf(stdout, "  rank ratio (p+3)/(p-3), median over runs: p50 %.3f, p95 %.3f (limit %.1f)\n", r50, r95, maxRankRatio)
	if r50 >= maxRankRatio {
		failures = append(failures, fmt.Sprintf("%s: rank ratio at p50 is %.3f, limit %.1f", workload, r50, maxRankRatio))
	}
	if r95 >= maxRankRatio && workload != "serve-mixed" {
		failures = append(failures, fmt.Sprintf("%s: rank ratio at p95 is %.3f, limit %.1f", workload, r95, maxRankRatio))
	}
	return failures
}

// childRun runs one end-to-end run of this binary in a fresh process and
// parses its detail and result lines.
func childRun(exe, workload string, seed int64, o options, stderr io.Writer) (result, detail, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
	if o.stateDir != "" {
		args = append(args, "-state-dir", o.stateDir)
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, detail{}, err
	}
	return parseRun(out)
}

// parseRun extracts the detail line and the final result line from a run's
// standard output.
func parseRun(out []byte) (result, detail, error) {
	var res result
	var d detail
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return res, d, fmt.Errorf("detail line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, d, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, d, nil
}
