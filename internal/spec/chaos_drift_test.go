package spec

import (
	"bytes"
	"strings"
	"testing"

	"erms/examples/specs"
	"erms/internal/parallel"
)

// operatorYAML exercises every new operator-facing block: per-service SLA
// overrides, a chaos timeline, and drift detection.
const operatorYAML = `
version: 1
seed: 7
app:
  kind: hotel
  slas:
    search: 80
    reserve: 120
run:
  duration_min: 12
  window_min: 3
  hosts: 20
chaos:
  p_host_fail: 0.25
  down_windows: 2
  p_crash: 0.5
  crashes_per_window: 2
  p_spike: 0.3
  spike_hosts: 3
  severity_cpu: 0.25
  severity_mem: 0.2
  p_obs_gap: 0.15
  p_op_fail: 0.25
  op_failures: 2
drift:
  threshold: 0.75
  consecutive: 2
cohorts:
  - name: web
    service: search
    tier: standard
    arrival:
      kind: static
      rate: 80
`

func TestParseOperatorBlocks(t *testing.T) {
	s, err := Parse([]byte(operatorYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Chaos == nil || s.Drift == nil {
		t.Fatalf("chaos/drift blocks not decoded: %+v", s)
	}
	if s.Chaos.Seed != 7 {
		t.Fatalf("chaos seed should default to the spec seed 7, got %d", s.Chaos.Seed)
	}
	if s.Chaos.PHostFail != 0.25 || s.Chaos.CrashesPerWindow != 2 || s.Chaos.Severity.Mem != 0.2 {
		t.Fatalf("chaos knobs wrong: %+v", s.Chaos)
	}
	if s.Drift.Threshold != 0.75 || s.Drift.Consecutive != 2 || s.Drift.Downward {
		t.Fatalf("drift knobs wrong: %+v", s.Drift)
	}
	if got := s.App.SLAs["search"]; got != 80 {
		t.Fatalf("app.slas.search = %g, want 80", got)
	}
}

func TestCompileAppliesSLAOverrides(t *testing.T) {
	s, err := Parse([]byte(operatorYAML))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sla, ok := sc.App.SLAs["search"]
	if !ok || sla.Threshold != 80 || sla.Percentile <= 0 {
		t.Fatalf("search SLA override not applied: %+v (ok=%v)", sla, ok)
	}
	if sla2 := sc.App.SLAs["reserve"]; sla2.Threshold != 120 {
		t.Fatalf("reserve SLA override not applied: %+v", sla2)
	}
	// A service without an override keeps the topology default.
	for svc, v := range sc.App.SLAs {
		if v.Threshold <= 0 {
			t.Fatalf("service %q lost its SLA threshold: %+v", svc, v)
		}
	}
}

func TestChaosConfigSizedToScenario(t *testing.T) {
	s, err := Parse([]byte(operatorYAML))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sc.ChaosSchedule(0)
	if err != nil || sched == nil {
		t.Fatalf("ChaosSchedule(0) = %v, %v; want the chaos block's schedule", sched, err)
	}
	cfg := sched.Cfg
	if cfg.Windows != sc.Windows || cfg.Hosts != 20 || cfg.WindowMin != sc.WindowMin {
		t.Fatalf("chaos config not sized to scenario: %+v (windows %d)", cfg, sc.Windows)
	}
	if len(cfg.Microservices) != len(sc.App.Microservices()) {
		t.Fatalf("chaos crash candidates = %d, want all %d microservices", len(cfg.Microservices), len(sc.App.Microservices()))
	}
	if cfg.Severity.CPU != 0.25 || cfg.Severity.Mem != 0.2 {
		t.Fatalf("severity not mapped: %+v", cfg.Severity)
	}
	ext, err := sc.ChaosSchedule(100)
	if err != nil || ext.Cfg.Windows != 100 {
		t.Fatalf("ChaosSchedule(100).Cfg.Windows = %d (err %v), want 100", ext.Cfg.Windows, err)
	}
	if none, err := (&Scenario{Spec: &Spec{}}).ChaosSchedule(5); none != nil || err != nil {
		t.Fatalf("scenario without chaos block reported a schedule: %v, %v", none, err)
	}
}

func TestDriftConfigMapped(t *testing.T) {
	s, err := Parse([]byte(operatorYAML))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := s.Drift; cfg == nil || cfg.Threshold != 0.75 || cfg.Consecutive != 2 || cfg.Downward {
		t.Fatalf("drift config wrong: %+v", cfg)
	}
	none, err := Parse([]byte(minimalYAML))
	if err != nil {
		t.Fatal(err)
	}
	if none.Drift != nil {
		t.Fatalf("spec without drift block reported a config: %+v", none.Drift)
	}
}

// compileExample compiles an embedded example spec after edit (nil for
// none) has adjusted the parsed document.
func compileExample(t *testing.T, name string, edit func(*Spec)) *Scenario {
	t.Helper()
	s, err := Parse(specs.Read(name))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(s)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunInjectsChaos pins that a batch run is the real control loop: a
// chaos block (which Scenario.Run used to refuse, pointing at `ermsctl
// operate`) injects its fault schedule, the loop repairs, retries and
// degrades, every window reports it, and timeline and control table are
// byte-identical at one worker and four. The example's fault mix is turned
// up — more host deaths, control-plane faults of up to 4 failing attempts
// (> MaxRetries) — so repairs and degraded windows are certain.
func TestRunInjectsChaos(t *testing.T) {
	render := func() (string, *RunResult) {
		sc := compileExample(t, "chaos.yaml", func(s *Spec) {
			s.TimeScale = 2
			s.Chaos.PHostFail, s.Chaos.POpFail, s.Chaos.OpFailures = 0.5, 0.6, 4
		})
		res, err := sc.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Report(&buf)
		if err := res.WriteTimelineCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res
	}
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	seq, res := render()
	parallel.SetWorkers(4)
	if par, _ := render(); par != seq {
		t.Errorf("chaos batch run differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}

	if len(res.Windows) != 8 {
		t.Fatalf("got %d windows, want 8", len(res.Windows))
	}
	var faulted, repaired, retries, degraded int
	for w, rep := range res.Windows {
		if rep.WindowReport == nil || rep.Window != w {
			t.Fatalf("window %d carries no control report: %+v", w, rep)
		}
		if rep.Faults != "-" {
			faulted++
		}
		repaired += rep.Repaired
		retries += rep.Retries
		if rep.Degraded {
			degraded++
		}
	}
	if faulted == 0 || repaired == 0 || retries == 0 || degraded == 0 {
		t.Errorf("fault schedule left no trace: %d faulted windows, %d repaired, %d retries, %d degraded\n%s",
			faulted, repaired, retries, degraded, seq)
	}
	// One table row per window, below the header; a blank line ends the
	// table.
	table := seq[strings.Index(seq, "win  faults"):]
	if rows := strings.Count(table[:strings.Index(table, "\n\n")+1], "\n"); rows != 1+8 {
		t.Errorf("control table has %d lines, want header + 8 windows:\n%s", rows, seq)
	}
}

// TestRunScoresDrift is the regression test for the driver split: a batch
// run evaluated windows by hand and never fed the drift detector, so a
// drift block was silently ignored (0 windows scored). On the shared loop
// every window is scored. It also holds the run to what drift.yaml's header
// quotes: the crash window's requests fail instead of slowing down, so no
// window is detected and no model swapped.
func TestRunScoresDrift(t *testing.T) {
	sc := compileExample(t, "drift.yaml", nil)
	res, err := sc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift == nil || res.Drift.Windows != len(res.Windows) {
		t.Fatalf("drift loop scored %+v over %d windows, want every window", res.Drift, len(res.Windows))
	}
	if res.Drift.Detections != 0 || res.Drift.Swaps != 0 {
		t.Errorf("drift loop made %d detections and %d swaps; drift.yaml's header quotes 0 and 0", res.Drift.Detections, res.Drift.Swaps)
	}
	for _, rep := range res.Windows {
		if rep.ModelSwaps != 0 {
			t.Errorf("window %d swapped %d models; drift.yaml's header quotes none", rep.Window, rep.ModelSwaps)
		}
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if !strings.Contains(buf.String(), "drift loop: 6 windows scored, 0 detections, 0 swaps, max score 0.00") {
		t.Errorf("report lacks the drift summary drift.yaml's header quotes:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "2    crash(reserve)") {
		t.Errorf("window 2 is not the reserve crash drift.yaml's header names:\n%s", buf.String())
	}
}

func opReplace(old, new string) []byte {
	return []byte(strings.Replace(operatorYAML, old, new, 1))
}

func TestOperatorBlockErrors(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		{"chaos unknown field", opReplace("p_host_fail: 0.25", "p_host_fail: 0.25\n  blast_radius: 9"), `unknown field "blast_radius" in chaos`},
		{"chaos probability high", opReplace("p_crash: 0.5", "p_crash: 1.5"), "chaos.p_crash is a probability"},
		{"chaos probability negative", opReplace("p_obs_gap: 0.15", "p_obs_gap: -0.1"), "chaos.p_obs_gap is a probability"},
		{"chaos spike hosts over cluster", opReplace("spike_hosts: 3", "spike_hosts: 21"), "chaos.spike_hosts"},
		{"chaos max hosts down over cluster", opReplace("down_windows: 2", "down_windows: 2\n  max_hosts_down: 21"), "chaos.max_hosts_down"},
		{"chaos severity", opReplace("severity_cpu: 0.25", "severity_cpu: 11"), "chaos.severity_cpu"},
		{"chaos op failures", opReplace("op_failures: 2", "op_failures: 500"), "chaos.op_failures"},
		{"drift unknown field", opReplace("consecutive: 2", "consecutive: 2\n  speed: fast"), `unknown field "speed" in drift`},
		{"drift threshold negative", opReplace("threshold: 0.75", "threshold: -1"), "drift.threshold"},
		{"drift consecutive", opReplace("consecutive: 2", "consecutive: 5000"), "drift.consecutive"},
		{"sla zero", opReplace("search: 80", "search: 0"), "app.slas.search"},
		{"sla negative", opReplace("reserve: 120", "reserve: -5"), "app.slas.reserve"},
		{"sla not number", opReplace("search: 80", "search: fast"), "must be a number"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got none", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestCompileRejectsUnknownSLAService pins that an SLA override naming a
// service outside the topology fails compile with the accepted service list.
func TestCompileRejectsUnknownSLAService(t *testing.T) {
	s, err := Parse(opReplace("search: 80", "checkout: 80"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Compile()
	if err == nil || !strings.Contains(err.Error(), `app.slas: service "checkout" not in app`) {
		t.Fatalf("compile err = %v, want unknown-service rejection", err)
	}
}
