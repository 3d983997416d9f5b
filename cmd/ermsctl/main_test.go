package main

import (
	"bytes"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the tests run the real command: re-executed with
// ERMSCTL_RUN_MAIN=1, the test binary is ermsctl.
func TestMain(m *testing.M) {
	if os.Getenv("ERMSCTL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ermsctl runs the command with args and returns its output streams and
// exit code.
func ermsctl(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ERMSCTL_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// TestWindowedFlagsAreGone pins the one-surface rule: the flags that used to
// build a chaos, drift, resilience or plan-window scenario no longer exist —
// the workload spec is the only way to describe such a run — and the flag
// package itself says so.
func TestWindowedFlagsAreGone(t *testing.T) {
	for _, name := range []string{
		"chaos", "chaos-windows", "chaos-naive", "drift", "drift-threshold", "drift-consecutive",
		"resilience", "timeout-sla", "attempt-timeout", "retries", "retry-budget", "breaker", "shed",
		"plan-windows", "dirty-frac", "sim-partitions",
	} {
		_, stderr, exit := ermsctl(t, "-"+name+"=1")
		if exit == 0 || !strings.Contains(stderr, "flag provided but not defined: -"+name) {
			t.Errorf("-%s: exit %d, stderr %q; want Go's undefined-flag error", name, exit, firstLine(stderr))
		}
	}
	// A one-shot flag next to -spec is still a contradiction.
	_, stderr, exit := ermsctl(t, "run", "-spec", "../../examples/specs/chaos.yaml", "-rate", "5")
	if exit == 0 || !strings.Contains(stderr, "drop the contradictory flag(s): -rate") {
		t.Errorf("-spec with -rate: exit %d, stderr %q", exit, firstLine(stderr))
	}
}

// TestRunSpecPrintsControlTable runs the shipped chaos example through the
// binary: the per-window control table has one row per window, carries the
// fault schedule, and the loop's repairs and retries show in it.
func TestRunSpecPrintsControlTable(t *testing.T) {
	stdout, stderr, exit := ermsctl(t, "run", "-spec", "../../examples/specs/chaos.yaml", "-timeline", "")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	_, table, ok := strings.Cut(stdout, "win  faults")
	if !ok {
		t.Fatalf("no control table in:\n%s", stdout)
	}
	// Rows follow the header line, one per window in order, until the
	// blank line that ends the table.
	rows := strings.Split(table, "\n")[1:]
	for w := 0; w < 8; w++ {
		if f := strings.Fields(rows[w]); len(f) < 6 || f[0] != strconv.Itoa(w) {
			t.Fatalf("table row %d is %q, want window %d:\n%s", w, rows[w], w, stdout)
		}
	}
	if strings.TrimSpace(rows[8]) != "" && !strings.HasPrefix(rows[8], "run took") {
		t.Errorf("more than 8 window rows:\n%s", stdout)
	}
	for _, want := range []string{"host3↓", "crash(reserve)", "plan×2"} {
		if !strings.Contains(table, want) {
			t.Errorf("fault %q missing from the table:\n%s", want, stdout)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func TestParseRates(t *testing.T) {
	defaults := func() map[string]float64 {
		return map[string]float64{"search": 20_000, "reserve": 20_000}
	}

	rates := defaults()
	if err := parseRates("search=50000, reserve=100", rates); err != nil {
		t.Fatal(err)
	}
	if rates["search"] != 50_000 || rates["reserve"] != 100 {
		t.Fatalf("rates = %v", rates)
	}
	if err := parseRates("", rates); err != nil {
		t.Fatalf("empty list: %v", err)
	}

	// A misspelled service must fail and list the real ones, not fall
	// through to the default rate.
	rates = defaults()
	err := parseRates("serach=50000", rates)
	if err == nil {
		t.Fatal("unknown service accepted")
	}
	for _, want := range []string{`"serach"`, "reserve, search"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	if len(rates) != 2 || rates["search"] != 20_000 {
		t.Fatalf("rejected entry changed the rates: %v", rates)
	}

	for _, bad := range []string{"search", "search=fast"} {
		if err := parseRates(bad, defaults()); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
