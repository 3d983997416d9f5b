package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const (
	digestPrefix = "digest "
	// outDir holds span dumps and per-run results; bench/.gitignore names it.
	outDir = "bench/out"
)

// child is one finished run of this program in its own process, so that
// peak_rss_mb and heap_live_mb never see a previous workload.
type child struct {
	result
	Digest string
	Layers []string // the "layer ..." lines, as printed
}

// runChild runs one workload in one mode and parses what it printed.
func runChild(s spec, seed uint64, seconds float64, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode, args := "0", []string{}
	if traced {
		mode = "1"
		args = append(args, "--trace-out", filepath.Join(outDir, s.Name+".spans.json"))
	}
	args = append([]string{
		"--workload", s.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", mode,
	}, args...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to exit

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	c := &child{}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, digestPrefix+s.Name+" "):
			c.Digest = strings.TrimPrefix(line, digestPrefix+s.Name+" ")
		case strings.HasPrefix(line, "layer "):
			c.Layers = append(c.Layers, line)
		case strings.HasPrefix(line, "check failed: "):
			fmt.Printf("  %s\n", line)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", s.Name, mode, runErr)
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &c.result); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", s.Name, mode, err)
	}
	name := fmt.Sprintf("%s.trace%s.json", s.Name, mode)
	if err := os.WriteFile(filepath.Join(outDir, name), []byte(last+"\n"), 0o644); err != nil {
		return nil, err
	}
	return c, nil
}

func printMetrics(defs []metricDef, c *child) {
	for _, d := range defs {
		m := c.Metrics[d.Name]
		fmt.Printf("  %-32s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// suite runs every workload untraced and traced on the same seed, prints
// every metric by name with its unit, and fails if a run is incorrect or
// tracing changed what the windows decided.
func suite(seed uint64, seconds float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	failed := 0
	for _, s := range specs {
		fmt.Printf("== %s: %s\n", s.Name, s.Why)
		plain, err := runChild(s, seed, seconds, false)
		if err != nil {
			return err
		}
		traced, err := runChild(s, seed, seconds, true)
		if err != nil {
			return err
		}
		fmt.Printf(" end to end (untraced, %d windows, %d failed)\n", plain.Attempted, plain.Failed)
		printMetrics(endToEnd, plain)
		fmt.Printf(" per layer (traced, %d windows)\n", traced.Attempted)
		printMetrics(perLayer, traced)
		overhead := traced.Metrics["obs.traced_window_ms"].Value/plain.Metrics["window_ms_mean"].Value - 1
		fmt.Printf("  %-32s %16.6g %%\n", "obs.trace_overhead_pct", 100*overhead)
		fmt.Println(" self time per traced window")
		for _, line := range traced.Layers {
			fmt.Printf("  %s\n", strings.TrimPrefix(line, "layer "))
		}
		fmt.Printf(" digest %s\n", plain.Digest)
		if plain.Digest == "" || plain.Digest != traced.Digest {
			fmt.Printf(" FAIL: traced digest %s differs\n", traced.Digest)
			failed++
		}
		if !plain.Correct || !traced.Correct {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d correctness checks failed", failed)
	}
	return nil
}

// decided are the end-to-end metrics that only depend on what the windows
// decided. The same seed must give them exactly; their bounds in
// BENCHMARK.json cannot say so, because the driver also holds the spread
// across different seeds to a third of the bound.
var decided = map[string]bool{
	"containers_mean": true, "sla_attainment": true, "p95_over_sla_mean": true, "healthy_window_share": true,
}

// repeat runs the untraced set twice on the same build and seed and compares
// every end-to-end metric against its bound, the decided ones and the digest
// for equality.
func repeat(seed uint64, seconds float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	type spread struct {
		Workload, Metric string
		First, Second    float64
		Diff, Bound      float64
	}
	var spreads []spread
	failed := 0
	for _, s := range specs {
		first, err := runChild(s, seed, seconds, false)
		if err != nil {
			return err
		}
		second, err := runChild(s, seed, seconds, false)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n", s.Name)
		if first.Digest != second.Digest {
			fmt.Printf("  FAIL: digests differ: %s, %s\n", first.Digest, second.Digest)
			failed++
		}
		for _, d := range endToEnd {
			a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			diff := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
			bound := d.Bound
			if decided[d.Name] {
				bound = 0
			}
			verdict := "ok"
			if diff > bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("  %-24s %14.6g %14.6g  diff %6.2f%%  bound %5.1f%%  %s\n", d.Name, a, b, 100*diff, 100*bound, verdict)
			spreads = append(spreads, spread{s.Name, d.Name, a, b, diff, bound})
		}
	}
	data, err := json.MarshalIndent(spreads, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "repeat.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics disagree by more than their bound", failed)
	}
	return nil
}
