package chaos

import (
	"errors"
	"math"
	"strings"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/profiling"
	"erms/internal/sim"
	"erms/internal/workload"
)

func stdConfig(seed uint64) Config {
	return Default(seed, 24, 1.5, 12, []string{"frontend", "search", "geo"})
}

// TestGenerateDeterministic: a fault schedule is a pure function of its
// seed — the same seed renders the same schedule and another seed a
// different one — which TestFigures/fig22 in internal/experiments builds
// on for every injection of fig22.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(stdConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(stdConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if len(a.Faults) == 0 {
		t.Fatal("standard schedule generated no faults")
	}
	c, err := Generate(stdConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateRespectsMaxHostsDown(t *testing.T) {
	cfg := stdConfig(3)
	cfg.PHostFail = 1 // try to fail a host every window
	cfg.Hosts = 4     // MaxHostsDown defaults to 1
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downUntil := map[int]int{}
	for _, f := range s.Faults {
		if f.Kind != KindHostFail {
			continue
		}
		n := 0
		for _, until := range downUntil {
			if until > f.Window {
				n++
			}
		}
		if n >= 1 {
			t.Fatalf("window %d: host %d failed while %d hosts already down", f.Window, f.Host, n)
		}
		downUntil[f.Host] = f.Window + 1 + f.DownWindows
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Windows: 0, Hosts: 3}); err == nil {
		t.Fatal("expected error for zero windows")
	}
	if _, err := Generate(Config{Windows: 5, Hosts: 0}); err == nil {
		t.Fatal("expected error for zero hosts")
	}
}

// demoOrch builds a 3-host orchestrator with one 3-replica deployment spread
// across hosts.
func demoOrch(t *testing.T) *kube.Orchestrator {
	t.Helper()
	o := kube.New(cluster.New(3, cluster.PaperHost), nil)
	if err := o.Apply(cluster.PaperContainer("A"), 3); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestInjectorHostFailureLifecycle(t *testing.T) {
	sched := NewSchedule(Config{Windows: 6, WindowMin: 1.5, Hosts: 3}, []Fault{
		{Window: 0, Kind: KindHostFail, Host: 1, AtFrac: 0.5, DownWindows: 2},
	})
	o := demoOrch(t)
	inj := NewInjector(sched, o)

	// Window 0: the host dies mid-window inside the simulation only.
	ev, err := inj.BeginWindow(0)
	if err != nil || len(ev.Failed) != 0 {
		t.Fatalf("window 0 should see no control-plane failures: ev=%+v err=%v", ev, err)
	}
	fs := inj.WindowFailures(0)
	if len(fs) != 1 || fs[0].Host != 1 || fs[0].Microservice != "" {
		t.Fatalf("window 0 sim failures = %+v, want one host-scoped failure on host 1", fs)
	}
	if fs[0].AtMin != 0.75 {
		t.Fatalf("failure at %v min, want 0.75", fs[0].AtMin)
	}

	// Window 1: detection. The node is evicted and marked down.
	ev, err = inj.BeginWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Failed) != 1 || ev.Failed[0] != 1 {
		t.Fatalf("window 1 failed hosts = %v, want [1]", ev.Failed)
	}
	if !o.Cluster().Host(1).Down() {
		t.Fatal("host 1 should be down after detection")
	}
	if got := o.Cluster().CountFor("A"); got != 2 {
		t.Fatalf("live containers after eviction = %d, want 2", got)
	}
	if o.Replicas("A") != 3 {
		t.Fatalf("desired replicas changed to %d", o.Replicas("A"))
	}

	// Replacement scheduling converges back to the desired count on the
	// surviving hosts.
	replaced, err := o.Repair()
	if err != nil || replaced != 1 {
		t.Fatalf("Repair = (%d, %v), want (1, nil)", replaced, err)
	}
	if got := o.Cluster().CountFor("A"); got != 3 {
		t.Fatalf("after repair: %d containers, want 3", got)
	}

	// Windows 2: still down. Window 3: recovery.
	if _, err := inj.BeginWindow(2); err != nil {
		t.Fatal(err)
	}
	if !o.Cluster().Host(1).Down() {
		t.Fatal("host 1 should still be down in window 2")
	}
	ev, err = inj.BeginWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Recovered) != 1 || ev.Recovered[0] != 1 {
		t.Fatalf("window 3 recovered = %v, want [1]", ev.Recovered)
	}
	if o.Cluster().Host(1).Down() {
		t.Fatal("host 1 should be up again in window 3")
	}
}

func TestInjectorSpikeAppliesAndLifts(t *testing.T) {
	sev := workload.Interference{CPU: 0.3, Mem: 0.2}
	cfg := Config{Windows: 2, WindowMin: 1.5, Hosts: 3}
	sched := NewSchedule(cfg, []Fault{
		{Window: 0, Kind: KindLatencySpike, Host: 0, Severity: sev},
	})
	o := demoOrch(t)
	base := workload.Interference{CPU: 0.1, Mem: 0.1}
	if err := o.Cluster().SetBackground(0, base); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(sched, o)
	ev, err := inj.BeginWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Spiked) != 1 || ev.Spiked[0] != 0 {
		t.Fatalf("spiked = %v, want [0]", ev.Spiked)
	}
	got := o.Cluster().Host(0).Background()
	if got.CPU != base.CPU+sev.CPU || got.Mem != base.Mem+sev.Mem {
		t.Fatalf("spiked background = %+v", got)
	}
	if err := inj.EndWindow(0); err != nil {
		t.Fatal(err)
	}
	if got := o.Cluster().Host(0).Background(); got != base {
		t.Fatalf("background not restored: %+v", got)
	}
}

func TestInjectorOpErrorAndObsGap(t *testing.T) {
	sched := NewSchedule(Config{Windows: 3, WindowMin: 1.5, Hosts: 2}, []Fault{
		{Window: 1, Kind: KindOpFault, Op: "plan", Count: 2},
		{Window: 1, Kind: KindObsGap},
		{Window: 2, Kind: KindContainerCrash, Microservice: "A", Index: 0, AtFrac: 0.5, RecoverFrac: 0.8},
	})
	inj := NewInjector(sched, demoOrch(t))

	if err := inj.OpError(1, "plan", 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 0 = %v, want injected fault", err)
	}
	if err := inj.OpError(1, "plan", 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 1 = %v, want injected fault", err)
	}
	if err := inj.OpError(1, "plan", 2); err != nil {
		t.Fatalf("attempt 2 = %v, want nil (fault is transient)", err)
	}
	if err := inj.OpError(1, "apply", 0); err != nil {
		t.Fatalf("apply should not fault: %v", err)
	}
	if err := inj.OpError(0, "plan", 0); err != nil {
		t.Fatalf("window 0 should not fault: %v", err)
	}

	if !inj.ObservabilityGap(1) || inj.ObservabilityGap(0) {
		t.Fatal("obs gap should hit exactly window 1")
	}

	fs := inj.WindowFailures(2)
	if len(fs) != 1 || fs[0].Microservice != "A" {
		t.Fatalf("window 2 failures = %+v", fs)
	}
	if math.Abs(fs[0].AtMin-0.75) > 1e-9 || math.Abs(fs[0].RecoverMin-1.2) > 1e-9 {
		t.Fatalf("crash times = (%v, %v), want (0.75, 1.2)", fs[0].AtMin, fs[0].RecoverMin)
	}
}

// TestProfilerToleratesObservabilityGaps runs a simulation with dropped
// metric minutes and checks the profiler still fits a model from the
// surviving samples — the control plane degrades, it does not crash.
func TestProfilerToleratesObservabilityGaps(t *testing.T) {
	cl := cluster.New(4, cluster.PaperHost)
	for i := 0; i < 4; i++ {
		if _, err := cl.Place(cluster.PaperContainer("A"), i); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := sim.NewRuntime(sim.Config{
		Seed:        11,
		Cluster:     cl,
		Profiles:    map[string]sim.ServiceProfile{"A": {BaseMs: 2, CV: 0.5}},
		Graphs:      []*graph.Graph{graph.New("svc", "A")},
		Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: 1200}},
		DurationMin: 14,
		WarmupMin:   1,
		DropMinutes: []int{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	for _, m := range res.Samples {
		if m.Minute == 2 || m.Minute == 3 {
			t.Fatalf("dropped minute %d still recorded", m.Minute)
		}
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples survived the gap")
	}
	models, failed := profiling.FitAll(profiling.FromMinuteSamples(res.Samples), profiling.FitConfig{})
	if len(failed) != 0 {
		t.Fatalf("profiler failed to fit %v despite surviving samples", failed)
	}
	if _, ok := models["A"]; !ok {
		t.Fatal("no model fitted for A")
	}
}

func TestScheduleSummaryStable(t *testing.T) {
	s, err := Generate(stdConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.String(), "chaos schedule: seed=7 windows=24 hosts=12") {
		t.Fatalf("unexpected header: %q", s.String())
	}
	for w := 0; w < s.Cfg.Windows; w++ {
		if s.Summary(w) == "" {
			t.Fatalf("empty summary for window %d", w)
		}
	}
}
