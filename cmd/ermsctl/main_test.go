package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"erms/internal/apps"
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

// TestWindowedFlagsAreGone pins the one-surface rule: a scenario is a
// workload spec and nothing else. The flags that used to build a chaos,
// drift, resilience or plan-window scenario, and the one-shot flags that
// described a uniform-rate -plan / -evaluate, no longer exist on any
// subcommand — the flag package itself says so — and ermsctl has no
// subcommand-less form.
func TestWindowedFlagsAreGone(t *testing.T) {
	for _, name := range []string{
		"chaos", "chaos-windows", "chaos-naive", "drift", "drift-threshold", "drift-consecutive",
		"resilience", "timeout-sla", "attempt-timeout", "retries", "retry-budget", "breaker", "shed",
		"plan-windows", "dirty-frac", "sim-partitions",
		"app", "services", "rate", "rates", "scheme", "hosts", "minutes", "seed",
		"plan", "evaluate", "profile", "sim-mode", "load-app",
	} {
		for _, cmd := range []string{"plan", "run"} {
			_, stderr, exit := ermsctl(t, cmd, "-"+name+"=1")
			if exit == 0 || !strings.Contains(stderr, "flag provided but not defined: -"+name) {
				t.Errorf("%s -%s: exit %d, stderr %q; want Go's undefined-flag error", cmd, name, exit, firstLine(stderr))
			}
		}
	}
	for _, args := range [][]string{nil, {"-spec", "../../examples/specs/chaos.yaml"}, {"evaluate"}} {
		if _, stderr, exit := ermsctl(t, args...); exit != 2 || !strings.Contains(stderr, "usage: ermsctl plan|run|operate") {
			t.Errorf("ermsctl %v: exit %d, stderr %q; want the usage line", args, exit, firstLine(stderr))
		}
	}
}

// TestRunSpecPrintsControlTable runs the shipped chaos example through the
// binary: the per-window control table has one row per window, carries the
// fault schedule, and the loop's repairs and retries show in it; the last
// window's per-service SLA outcomes follow it.
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
	if strings.TrimSpace(rows[8]) != "" {
		t.Errorf("more than 8 window rows:\n%s", stdout)
	}
	for _, want := range []string{"host3↓", "crash(reserve)", "plan×2"} {
		if !strings.Contains(table, want) {
			t.Errorf("fault %q missing from the table:\n%s", want, stdout)
		}
	}
	if rows[9] != "window 7, simulated minutes 14-16:" {
		t.Fatalf("table is not followed by the last window's outcomes:\n%s", stdout)
	}
	for i, svc := range []string{"login", "recommend", "reserve", "search"} {
		if f := strings.Fields(rows[10+i]); len(f) != 7 || f[0] != svc || f[1] != "SLA" || f[3] != "P95" || f[5] != "violations" {
			t.Errorf("outcome line %d is %q, want service %s's SLA, P95 and violations", i, rows[10+i], svc)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestPlanSpecMatchesOneShotGolden: `plan -spec` on a one-window spec with
// one static cohort per service prints, byte for byte, the table the removed
// one-shot `-plan` flags printed for the same app, scheme, rate and cluster
// (testdata/plan.golden, captured from the one-shot command: hotel, social
// and media × three schemes at 30 000 req/min per service on 20 hosts, and
// an 8-service alibaba topology of seed 3 at 5 000 req/min on 40 hosts), and
// -save-plan writes the same JSON (testdata/hotel-priority.plan.json).
func TestPlanSpecMatchesOneShotGolden(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	plan := func(label, specDoc string, extra ...string) {
		path := filepath.Join(dir, strings.ReplaceAll(label, " ", "-")+".yaml")
		if err := os.WriteFile(path, []byte(specDoc), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, exit := ermsctl(t, append([]string{"plan", "-spec", path}, extra...)...)
		if exit != 0 {
			t.Fatalf("%s: exit %d: %s", label, exit, stderr)
		}
		fmt.Fprintf(&got, "== %s\n%s", label, stdout)
	}
	savedPlan := filepath.Join(dir, "plan.json")
	for _, app := range []*apps.App{apps.HotelReservation(), apps.SocialNetwork(), apps.MediaService()} {
		kind := strings.SplitN(app.Name, "-", 2)[0]
		for _, scheme := range []string{"priority", "fcfs", "nonshared"} {
			doc := uniformSpec("kind: "+kind, app, scheme, 30_000, 20)
			if kind == "hotel" && scheme == "priority" {
				plan(kind+" "+scheme, doc, "-save-plan", savedPlan)
			} else {
				plan(kind+" "+scheme, doc)
			}
		}
	}
	alibaba := apps.Alibaba(apps.AlibabaConfig{Seed: 3, Services: 8})
	plan("alibaba priority", uniformSpec("kind: alibaba\n  seed: 3\n  services: 8", alibaba, "priority", 5_000, 40))

	if want := readFile(t, "testdata/plan.golden"); got.String() != want {
		t.Errorf("plan -spec differs from the one-shot golden:\n%s", firstDiff(got.String(), want))
	}
	if got, want := readFile(t, savedPlan), readFile(t, "testdata/hotel-priority.plan.json"); got != want {
		t.Errorf("-save-plan JSON differs from the one-shot golden:\n%s", firstDiff(got, want))
	}
}

// uniformSpec is a one-window spec of app (selected by the app block body
// appBlock) under scheme on hosts hosts, with one static cohort per service
// at rate req/min.
func uniformSpec(appBlock string, app *apps.App, scheme string, rate float64, hosts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "version: 1\napp:\n  %s\nrun:\n  duration_min: 1\n  hosts: %d\n  scheme: %s\ncohorts:\n", appBlock, hosts, scheme)
	for i, svc := range app.Services() {
		fmt.Fprintf(&b, "  - name: c%d\n    service: %s\n    tier: standard\n    arrival:\n      kind: static\n      rate: %g\n", i, svc, rate)
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "(identical)"
}
