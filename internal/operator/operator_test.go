package operator

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"erms/internal/chaos"
	"erms/internal/obs"
	"erms/internal/spec"
)

// baseSpecYAML is the bootstrap spec for operator tests: the hotel app at a
// modest steady rate, one window per spec-minute, with the data-plane fault
// model on so the error-rate guardrail is live.
const baseSpecYAML = `
version: 1
name: base
seed: 11
app:
  kind: hotel
run:
  duration_min: 8
  window_min: 1
  hosts: 20
resilience:
  timeout_sla_multiple: 3
  max_attempts: 2
  retry_budget: 0.2
cohorts:
  - name: web
    service: search
    tier: standard
    arrival:
      kind: static
      rate: 2400
  - name: booking
    service: reserve
    tier: critical
    arrival:
      kind: static
      rate: 900
`

// goodPushYAML relaxes one SLA slightly — a benign config change that must
// promote.
const goodPushYAML = `
version: 1
name: good-push
seed: 11
app:
  kind: hotel
  slas:
    search: 170
run:
  duration_min: 8
  window_min: 1
  hosts: 20
resilience:
  timeout_sla_multiple: 3
  max_attempts: 2
  retry_budget: 0.2
cohorts:
  - name: web
    service: search
    tier: standard
    arrival:
      kind: static
      rate: 2400
  - name: booking
    service: reserve
    tier: critical
    arrival:
      kind: static
      rate: 900
`

// badPushYAML tightens the search SLA ~4x below what the topology can
// deliver under load — the canary must breach and roll back.
const badPushYAML = `
version: 1
name: bad-push
seed: 11
app:
  kind: hotel
  slas:
    search: 8
run:
  duration_min: 8
  window_min: 1
  hosts: 20
resilience:
  timeout_sla_multiple: 3
  max_attempts: 2
  retry_budget: 0.2
cohorts:
  - name: web
    service: search
    tier: standard
    arrival:
      kind: static
      rate: 2400
  - name: booking
    service: reserve
    tier: critical
    arrival:
      kind: static
      rate: 900
`

func compileSpec(t *testing.T, yaml string) *spec.Scenario {
	t.Helper()
	s, err := spec.Parse([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newTestOperator(t *testing.T, cfg Config) *Operator {
	t.Helper()
	o, err := New(compileSpec(t, baseSpecYAML), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func stepN(t *testing.T, o *Operator, n int) []WindowStatus {
	t.Helper()
	out := make([]WindowStatus, 0, n)
	for i := 0; i < n; i++ {
		st, err := o.Step()
		if err != nil {
			t.Fatalf("window %d: %v", nextWindow(o)-1, err)
		}
		out = append(out, *st)
	}
	return out
}

func testConfig() Config {
	return Config{
		CanaryFraction:   0.25,
		CanaryWindows:    2,
		SoakWindows:      1,
		MaxViolationRate: 0.10,
		MaxErrorRate:     0.10,
	}
}

// TestNewRejectsOutOfRangeGuardrails: a guardrail that is NaN never fires
// (v > NaN is false), and an out-of-range one used to be replaced by its
// default without a word. New refuses both and names the field; zero still
// selects the default.
func TestNewRejectsOutOfRangeGuardrails(t *testing.T) {
	sc := compileSpec(t, baseSpecYAML)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"CanaryFraction", func(c *Config) { c.CanaryFraction = nan }},
		{"CanaryFraction", func(c *Config) { c.CanaryFraction = 1.5 }},
		{"CanaryFraction", func(c *Config) { c.CanaryFraction = -0.25 }},
		{"CanaryFraction", func(c *Config) { c.CanaryFraction = inf }},
		{"MaxViolationRate", func(c *Config) { c.MaxViolationRate = nan }},
		{"MaxViolationRate", func(c *Config) { c.MaxViolationRate = -1 }},
		{"MaxViolationRate", func(c *Config) { c.MaxViolationRate = 2 }},
		{"MaxErrorRate", func(c *Config) { c.MaxErrorRate = nan }},
		{"MaxErrorRate", func(c *Config) { c.MaxErrorRate = -inf }},
		{"MaxErrorRate", func(c *Config) { c.MaxErrorRate = 1.01 }},
		{"CanaryWindows", func(c *Config) { c.CanaryWindows = -1 }},
		{"SoakWindows", func(c *Config) { c.SoakWindows = -2 }},
		{"ChaosWindows", func(c *Config) { c.ChaosWindows = -1 }},
	} {
		cfg := testConfig()
		tc.set(&cfg)
		if _, err := New(sc, cfg, nil); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: err = %v, want a refusal naming %s", cfg, err, tc.field)
		}
	}
	o, err := New(sc, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{CanaryFraction: 0.25, CanaryWindows: 3, MaxViolationRate: 0.05, MaxErrorRate: 0.05}
	if o.Cfg != want {
		t.Errorf("zero Config became %+v, want the defaults %+v", o.Cfg, want)
	}
}

func TestGoodPushPromotesAndCommits(t *testing.T) {
	rec := obs.New(nil)
	o, err := New(compileSpec(t, baseSpecYAML), testConfig(), rec)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, o, 2)
	gen, err := o.Push([]byte(goodPushYAML), "test")
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if gen.ID != 2 || gen.Status != StatusCanarying {
		t.Fatalf("pushed gen = %+v, want ID 2 canarying", gen)
	}
	// 2 canary windows, then promoting (same window as 2nd canary), then
	// 1 soak window, then commit.
	sts := stepN(t, o, 4)
	var events []string
	for _, st := range sts {
		if st.Event != "" {
			events = append(events, fmt.Sprintf("w%d:%s", st.Window, st.Event))
		}
	}
	final := o.StatusSnapshot()
	if final.Committed != 2 || final.LastGood != 2 || final.Phase != "idle" {
		t.Fatalf("good push did not commit: %+v (events %v)", final, events)
	}
	if g := final.Generations[1]; g.Status != StatusCommitted || g.Reason != "" {
		t.Fatalf("generation 2 = %+v, want committed", g)
	}
	if got := rec.Value(obs.CtrRolloutPromoted); got != 1 {
		t.Fatalf("rollout_promoted_total = %g, want 1", got)
	}
	if got := rec.Value(obs.GaugeGeneration); got != 2 {
		t.Fatalf("spec_generation gauge = %g, want 2", got)
	}
}

func TestBadPushRollsBackWithFleetUntouched(t *testing.T) {
	const windows = 8
	rec := obs.New(nil)
	withPush, err := New(compileSpec(t, baseSpecYAML), testConfig(), rec)
	if err != nil {
		t.Fatal(err)
	}
	noPush := newTestOperator(t, testConfig())

	stepN(t, withPush, 2)
	stepN(t, noPush, 2)
	if _, err := withPush.Push([]byte(badPushYAML), "test"); err != nil {
		t.Fatalf("push: %v", err)
	}
	a := stepN(t, withPush, windows-2)
	b := stepN(t, noPush, windows-2)

	final := withPush.StatusSnapshot()
	if final.Committed != 1 || final.LastGood != 1 {
		t.Fatalf("bad push moved the committed generation: %+v", final)
	}
	g := final.Generations[1]
	if g.Status != StatusRolledBack || !strings.Contains(g.Reason, "canary") {
		t.Fatalf("generation 2 = %+v, want rolled-back in canary", g)
	}
	if got := rec.Value(obs.CtrRolloutRolledBack); got != 1 {
		t.Fatalf("rollout_rolled_back_total = %g, want 1", got)
	}
	if got := rec.Value(obs.GaugeGeneration); got != 1 {
		t.Fatalf("spec_generation gauge = %g, want 1", got)
	}

	// The contract that makes the sandboxed canary worth its cost: every
	// fleet window of the bad-push run is byte-identical to the no-push
	// run — zero windows of fleet-wide regression beyond the canary slice.
	for i := range a {
		// PhaseMs is wall-clock phase timing, recorded only when an obs
		// recorder is attached; it is outside the determinism contract.
		ra, rb := *a[i].fleet, *b[i].fleet
		ra.PhaseMs, rb.PhaseMs = nil, nil
		fa := fmt.Sprintf("%+v", ra)
		fb := fmt.Sprintf("%+v", rb)
		if fa != fb {
			t.Fatalf("fleet window %d diverged from the no-push run:\n with push: %s\n  no push: %s", a[i].Window, fa, fb)
		}
	}
}

// scaleBaseYAML bootstraps the operator on a generated topology, where a
// push can keep every service and microservice name and still change the
// graphs or the service profiles.
const scaleBaseYAML = `
version: 1
name: scale-base
seed: 9
app:
  kind: scale
  services: 12
  microservices_per_service: 8
  sharing_degree: 3
run:
  duration_min: 4
  window_min: 1
  hosts: 20
cohorts:
  - name: web
    service: scale-svc-00000
    tier: standard
    arrival:
      kind: static
      rate: 600
`

func TestPushAdmissionRejectsStructuralChanges(t *testing.T) {
	cases := []struct {
		name, base, push, old, new, want string
	}{
		{"different app", baseSpecYAML, goodPushYAML, "kind: hotel", "kind: social", "services"},
		{"different hosts", baseSpecYAML, goodPushYAML, "hosts: 20", "hosts: 30", "run.hosts"},
		{"different window", baseSpecYAML, goodPushYAML, "window_min: 1", "window_min: 2", "window_min"},
		{"different models", baseSpecYAML, goodPushYAML, "hosts: 20", "hosts: 20\n  models: profiled", "run.models"},
		// Same names, other graphs: stages one call wide double the
		// critical path.
		{"different graphs", scaleBaseYAML, scaleBaseYAML, "sharing_degree: 3", "sharing_degree: 3\n  max_stage_width: 1", "topology"},
		// Same names and graphs, other service profiles.
		{"different profiles", scaleBaseYAML, scaleBaseYAML, "seed: 9", "seed: 10", "topology"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := New(compileSpec(t, c.base), testConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bad := strings.Replace(c.push, c.old, c.new, 1)
			gen, err := o.Push([]byte(bad), "test")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want admission rejection mentioning %q", err, c.want)
			}
			if gen.Status != StatusRejected || gen.Reason == "" {
				t.Fatalf("rejected gen = %+v", gen)
			}
			if st := o.StatusSnapshot(); st.Phase != "idle" || st.Candidate != 0 {
				t.Fatalf("rejected push left machine non-idle: %+v", st)
			}
		})
	}

	t.Run("unparseable", func(t *testing.T) {
		o := newTestOperator(t, testConfig())
		gen, err := o.Push([]byte("version: 1\nbogus: {"), "test")
		if err == nil {
			t.Fatal("expected parse rejection")
		}
		if gen.Status != StatusRejected || gen.Name != "invalid" {
			t.Fatalf("gen = %+v", gen)
		}
	})
}

// TestOperatorDeterministic pins that the whole loop — fleet, canary,
// rollout decisions, counters — is a pure function of (bootstrap spec,
// pushes, windows).
func TestOperatorDeterministic(t *testing.T) {
	run := func() string {
		o := newTestOperator(t, testConfig())
		stepN(t, o, 1)
		if _, err := o.Push([]byte(goodPushYAML), "test"); err != nil {
			t.Fatal(err)
		}
		sts := stepN(t, o, 6)
		var sb strings.Builder
		for _, st := range sts {
			stCopy := st
			stCopy.fleet = nil
			fmt.Fprintf(&sb, "%+v|%+v\n", stCopy, *st.fleet)
		}
		snap := o.StatusSnapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(data)
		return sb.String()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("operator runs diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestStepPropagatesInjectorErrors is the regression test for the window
// bracket: Operator.Step used to call the injector's BeginWindow/EndWindow
// itself and drop their errors, so a fault the substrate cannot enact ran
// the window as if nothing had been scheduled. The schedule is hand-built:
// it has window 1 detect the death of a host the cluster does not have.
func TestStepPropagatesInjectorErrors(t *testing.T) {
	o, err := New(compileSpec(t, baseSpecYAML), testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := chaos.NewSchedule(chaos.Config{Windows: 4, WindowMin: 1, Hosts: 20},
		[]chaos.Fault{{Window: 0, Kind: chaos.KindHostFail, Host: 99, AtFrac: 2, DownWindows: 1}})
	o.loop.Inj = chaos.NewInjector(sched, o.fleet.Orch)
	o.loop.Rec.Chaos = o.loop.Inj

	if _, err := o.Step(); err != nil {
		t.Fatalf("window 0 (nothing detected yet): %v", err)
	}
	_, err = o.Step()
	if err == nil || !strings.Contains(err.Error(), "failing host 99") {
		t.Fatalf("window 1: err = %v, want the injector's failure to evict host 99", err)
	}
	if recent := o.StatusSnapshot().Recent; nextWindow(o) != 1 || len(recent) != 1 {
		t.Errorf("failed window was recorded: window %d, %d statuses", nextWindow(o), len(recent))
	}
}

// nextWindow returns the next window index Step will run.
func nextWindow(o *Operator) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.window
}
