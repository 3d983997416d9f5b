package core

import (
	"testing"

	"erms/internal/chaos"
	"erms/internal/obs"
)

// obsReconciler builds a hotel reconciler with a recorder attached to the
// controller before the reconciler is created, mirroring how
// spec.Scenario.NewLoop wires self-observability.
func obsReconciler(t *testing.T) (*Reconciler, *Controller, *obs.Recorder) {
	t.Helper()
	c := hotelController(t)
	rec := obs.New(nil)
	c.Obs = rec
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	return r, c, rec
}

func TestStepPopulatesPhaseTimings(t *testing.T) {
	r, _, rec := obsReconciler(t)
	rep, err := r.Step(hotelRates(8_000), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{obs.PhaseRepair, obs.PhasePlan, obs.PhaseApply, obs.PhaseEvaluate} {
		d, ok := rep.PhaseMs[phase]
		if !ok {
			t.Fatalf("PhaseMs missing %q: %v", phase, rep.PhaseMs)
		}
		if d < 0 {
			t.Fatalf("phase %q duration %v < 0", phase, d)
		}
	}
	// Evaluation runs a real simulation; it cannot take literally zero time.
	if rep.PhaseMs[obs.PhaseEvaluate] <= 0 {
		t.Fatalf("evaluate phase = %v ms, want > 0", rep.PhaseMs[obs.PhaseEvaluate])
	}
	if got := rec.Value(obs.CtrWindows); got != 1 {
		t.Fatalf("windows counter = %v, want 1", got)
	}
	if got := rec.Value(obs.CtrPlans); got < 1 {
		t.Fatalf("plans counter = %v, want >= 1", got)
	}
	if got := rec.Value(obs.CtrSimEvents); got <= 0 {
		t.Fatalf("sim events counter = %v, want > 0", got)
	}
	if rec.Value(obs.GaugeContainers) != float64(rep.Containers) {
		t.Fatalf("containers gauge = %v, want %d", rec.Value(obs.GaugeContainers), rep.Containers)
	}
	// One span per phase landed in the ring for window 0.
	phases := make(map[string]bool)
	for _, sp := range rec.Spans() {
		if sp.Window == 0 {
			phases[sp.Name] = true
		}
	}
	for _, phase := range []string{obs.PhaseRepair, obs.PhasePlan, obs.PhaseApply, obs.PhaseEvaluate} {
		if !phases[phase] {
			t.Fatalf("span ring missing phase %q: %v", phase, phases)
		}
	}
}

func TestStepWithoutRecorderLeavesPhaseMsNil(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	rep, err := r.Step(hotelRates(8_000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PhaseMs != nil {
		t.Fatalf("PhaseMs without a recorder = %v, want nil", rep.PhaseMs)
	}
}

func TestStepRecordsRetriesAndDegradedWindows(t *testing.T) {
	r, _, rec := obsReconciler(t)
	// Window 0: two plan faults and one apply fault — retried, not degraded.
	r.Chaos = &fakeChaos{planFails: 2, applyFails: 1}
	if _, err := r.Step(hotelRates(8_000), 1); err != nil {
		t.Fatal(err)
	}
	if got := rec.Value(obs.CtrRetries); got != 3 {
		t.Fatalf("retries counter = %v, want 3", got)
	}
	if got := rec.Value(obs.CtrDegradedWindows); got != 0 {
		t.Fatalf("degraded counter after clean window = %v, want 0", got)
	}
	// Window 1: planning fails past the retry budget — degraded, running on
	// the last good plan.
	r.Chaos = &fakeChaos{planFails: 100}
	rep, err := r.Step(hotelRates(8_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatalf("window not degraded: %+v", rep)
	}
	if got := rec.Value(obs.CtrDegradedWindows); got != 1 {
		t.Fatalf("degraded counter = %v, want 1", got)
	}
	if got := rec.Value(obs.CtrWindows); got != 2 {
		t.Fatalf("windows counter = %v, want 2", got)
	}
	// The degraded window still timed its phases.
	if _, ok := rep.PhaseMs[obs.PhaseEvaluate]; !ok {
		t.Fatalf("degraded window lost phase timings: %v", rep.PhaseMs)
	}
}

// TestChaosRunExportsSelfTelemetry drives the reconciler under a real
// chaos.Injector schedule — the full ermsctl -chaos wiring — and checks the
// erms.self.* counters and the recorder's phase spans carry the per-window
// values the reports do.
func TestChaosRunExportsSelfTelemetry(t *testing.T) {
	r, c, rec := obsReconciler(t)
	const windows = 4
	cfg := chaos.Default(7, windows, r.WindowMin, c.Orch.Cluster().NumHosts(), c.App.Microservices())
	sched, err := chaos.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(sched, c.Orch)
	inj.SetRecorder(rec)
	r.Chaos = inj

	var hist []*WindowReport
	for w := 0; w < windows; w++ {
		if _, err := inj.BeginWindow(w); err != nil {
			t.Fatal(err)
		}
		rep, err := r.Step(hotelRates(8_000), 7+uint64(w)*101)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, rep)
		if err := inj.EndWindow(w); err != nil {
			t.Fatal(err)
		}
	}

	var retries, degraded, repaired int
	for _, rep := range hist {
		retries += rep.Retries
		repaired += rep.Repaired
		if rep.Degraded {
			degraded++
		}
		if _, ok := rep.PhaseMs[obs.PhasePlan]; !ok && !rep.Outage {
			t.Fatalf("window %d missing plan phase timing: %v", rep.Window, rep.PhaseMs)
		}
	}
	if got := rec.Value(obs.CtrWindows); got != windows {
		t.Fatalf("windows counter = %v, want %d", got, windows)
	}
	if got := rec.Value(obs.CtrRetries); got != float64(retries) {
		t.Fatalf("retries counter = %v, history sum = %d", got, retries)
	}
	if got := rec.Value(obs.CtrDegradedWindows); got != float64(degraded) {
		t.Fatalf("degraded counter = %v, history sum = %d", got, degraded)
	}
	if got := rec.Value(obs.CtrRepaired); got != float64(repaired) {
		t.Fatalf("repaired counter = %v, history sum = %d", got, repaired)
	}
	// The default schedule injects at least one fault; the injector counters
	// must have seen them.
	chaosSeen := rec.Value(obs.CtrChaosHostsFailed) + rec.Value(obs.CtrChaosSpikes) +
		rec.Value(obs.CtrChaosCrashes) + rec.Value(obs.CtrChaosOpFaults) +
		rec.Value(obs.CtrChaosObsGaps)
	if chaosSeen == 0 {
		t.Fatal("chaos run recorded no chaos events")
	}

	// Each window's phase timings stay observable as the recorder's spans:
	// every phase a report carries is exactly one span of that name and
	// window, with the duration the report filed.
	type key struct {
		name   string
		window int
	}
	spans := make(map[key][]float64)
	for _, sp := range rec.Spans() {
		k := key{sp.Name, sp.Window}
		spans[k] = append(spans[k], sp.DurMs)
	}
	phases := 0
	for _, rep := range hist {
		for phase, ms := range rep.PhaseMs {
			phases++
			got := spans[key{phase, rep.Window}]
			if len(got) != 1 || got[0] != ms {
				t.Fatalf("window %d phase %s: spans %v, want exactly one of %v ms", rep.Window, phase, got, ms)
			}
		}
	}
	if n := len(rec.Spans()); n != phases {
		t.Fatalf("recorder holds %d spans, the reports %d phase timings", n, phases)
	}
}
