package core

import (
	"errors"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/sim"
	"erms/internal/workload"
)

// tinyController builds a two-service controller on a small cluster so apply
// failures are cheap to provoke.
func tinyController(t *testing.T, hosts int, spec cluster.HostSpec) *Controller {
	t.Helper()
	app := &apps.App{
		Name:   "tiny",
		Graphs: []*graph.Graph{graph.New("s1", "A"), graph.New("s2", "B")},
		Profiles: map[string]sim.ServiceProfile{
			"A": {BaseMs: 2, CV: 0.5}, "B": {BaseMs: 2, CV: 0.5},
		},
		SLAs: map[string]workload.SLA{
			"s1": workload.P95SLA("s1", 100), "s2": workload.P95SLA("s2", 100),
		},
		Containers: map[string]cluster.ContainerSpec{
			"A": cluster.PaperContainer("A"), "B": cluster.PaperContainer("B"),
		},
	}
	c, err := New(app, kube.New(cluster.New(hosts, spec), nil))
	if err != nil {
		t.Fatal(err)
	}
	c.UseAnalyticModels()
	return c
}

func TestApplyRollsBackOnMidApplyFailure(t *testing.T) {
	// One host, CPU-bound at 10 containers of 0.1 core.
	c := tinyController(t, 1, cluster.HostSpec{Cores: 1, MemGB: 4})
	if err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 2, "B": 2}}); err != nil {
		t.Fatal(err)
	}

	// A scales to 3 fine; B cannot reach 20 — the whole apply must roll back.
	err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 3, "B": 20}})
	if err == nil {
		t.Fatal("over-capacity apply accepted")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error %q should report the rollback", err)
	}
	if got := c.Orch.Replicas("A"); got != 2 {
		t.Fatalf("A replicas after rollback = %d, want 2", got)
	}
	if got := c.Orch.Replicas("B"); got != 2 {
		t.Fatalf("B replicas after rollback = %d, want 2", got)
	}
	if got := c.Orch.Cluster().NumContainers(); got != 4 {
		t.Fatalf("containers after rollback = %d, want 4", got)
	}
}

// TestApplyRollbackOnRememberedOrder: a plan with the previous plan's key set
// reuses its sorted order and its rollback snapshot slice. When the middle
// microservice cannot fit, every deployment must still return to the
// previous plan's counts.
func TestApplyRollbackOnRememberedOrder(t *testing.T) {
	// One host, CPU-bound at 10 containers of 0.1 core.
	c := tinyController(t, 1, cluster.HostSpec{Cores: 1, MemGB: 4})
	c.App.Containers["C"] = cluster.PaperContainer("C")
	rec := obs.New(c.Metrics)
	c.Obs = rec
	planA := map[string]int{"A": 2, "B": 2, "C": 2}
	if err := c.Apply(&multiplex.Plan{Containers: planA}); err != nil {
		t.Fatal(err)
	}
	order, snap := c.applyOrder, c.applySnap
	rollbacks := rec.Value(obs.CtrApplyRollbacks)

	// A scales to 3, B cannot reach 20, C is never reached.
	err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 3, "B": 20, "C": 1}})
	if err == nil || !strings.Contains(err.Error(), "applying B") || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error = %v, want B's failure rolled back", err)
	}
	if &c.applyOrder[0] != &order[0] || &c.applySnap[0] != &snap[0] {
		t.Fatal("a plan with the same key set re-sorted the names or reallocated the snapshot")
	}
	for ms, want := range planA {
		if got := c.Orch.Replicas(ms); got != want {
			t.Fatalf("%s replicas after rollback = %d, want %d", ms, got, want)
		}
		if got := c.Orch.Cluster().CountFor(ms); got != want {
			t.Fatalf("%s containers after rollback = %d, want %d", ms, got, want)
		}
	}
	if got := rec.Value(obs.CtrApplyRollbacks); got != rollbacks+1 {
		t.Fatalf("rollbacks = %v, want %v", got, rollbacks+1)
	}
}

func TestApplyRollbackDeletesCreatedDeployments(t *testing.T) {
	c := tinyController(t, 1, cluster.HostSpec{Cores: 1, MemGB: 4})
	if err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 2}}); err != nil {
		t.Fatal(err)
	}
	// B did not exist before the failed apply; rollback must delete it, not
	// leave an empty deployment behind.
	if err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 3, "B": 20}}); err == nil {
		t.Fatal("over-capacity apply accepted")
	}
	if _, ok := c.Orch.Deployment("B"); ok {
		t.Fatal("rollback left the created deployment behind")
	}
	if got := c.Orch.Replicas("A"); got != 2 {
		t.Fatalf("A replicas after rollback = %d, want 2", got)
	}
}

// TestHysteresisApplyFailureLeavesPlanUntouched is the regression test for
// the applyWithHysteresis bug: the adjusted counts used to be committed into
// plan.Containers before Apply ran, so a mid-apply failure left the plan
// claiming counts the cluster never reached.
func TestHysteresisApplyFailureLeavesPlanUntouched(t *testing.T) {
	c := tinyController(t, 1, cluster.HostSpec{Cores: 1, MemGB: 4})
	if err := c.Apply(&multiplex.Plan{Containers: map[string]int{"A": 2, "B": 2}}); err != nil {
		t.Fatal(err)
	}
	r := NewReconciler(c)
	plan := &multiplex.Plan{Containers: map[string]int{"A": 30, "B": 2}}
	applied, up, down, err := r.applyWithHysteresis(plan)
	if err == nil {
		t.Fatal("over-capacity hysteresis apply accepted")
	}
	if applied != nil || up != 0 || down != 0 {
		t.Fatalf("failed apply reported scaling: applied=%v up=%d down=%d", applied, up, down)
	}
	if plan.Containers["A"] != 30 || plan.Containers["B"] != 2 {
		t.Fatalf("failed apply mutated the plan: %v", plan.Containers)
	}
	if c.Orch.Replicas("A") != 2 || c.Orch.Replicas("B") != 2 {
		t.Fatalf("failed apply mutated the deployment: A=%d B=%d",
			c.Orch.Replicas("A"), c.Orch.Replicas("B"))
	}
}

// fakeChaos is a programmable ChaosHook for loop tests.
type fakeChaos struct {
	planFails  int
	applyFails int
	failures   []sim.Failure
	gap        bool
}

func (f *fakeChaos) OpError(_ int, op string, attempt int) error {
	if op == "plan" && attempt < f.planFails {
		return errors.New("injected plan fault")
	}
	if op == "apply" && attempt < f.applyFails {
		return errors.New("injected apply fault")
	}
	return nil
}
func (f *fakeChaos) WindowFailures(int) []sim.Failure { return f.failures }
func (f *fakeChaos) ObservabilityGap(int) bool        { return f.gap }

func TestStepSurvivesTransientFaults(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	// Two plan faults and one apply fault: within the default retry budget.
	r.Chaos = &fakeChaos{planFails: 2, applyFails: 1}
	rep, err := r.Step(hotelRates(8_000), 1)
	if err != nil {
		t.Fatalf("resilient step aborted on transient faults: %v", err)
	}
	if rep.Retries != 3 {
		t.Fatalf("retries = %d, want 3", rep.Retries)
	}
	if rep.BackoffMin <= 0 {
		t.Fatal("no backoff recorded")
	}
	if rep.Degraded || rep.Outage {
		t.Fatalf("transient faults within budget marked the window: %+v", rep)
	}
	if rep.Containers == 0 {
		t.Fatal("no containers deployed")
	}
}

func TestStepDegradesToLastPlanWhenPlanningFails(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	hook := &fakeChaos{}
	r.Chaos = hook
	if _, err := r.Step(hotelRates(8_000), 1); err != nil {
		t.Fatal(err)
	}
	want := r.lastPlan.TotalContainers()

	// Planning now fails past the retry budget; the loop reuses the last
	// good plan instead of aborting.
	hook.planFails = 100
	rep, err := r.Step(hotelRates(9_000), 2)
	if err != nil {
		t.Fatalf("degraded step aborted: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("window not marked degraded")
	}
	if rep.Containers != want {
		t.Fatalf("degraded window deployed %d containers, want last plan's %d", rep.Containers, want)
	}
}

func TestStepErrorsWithoutFallbackPlan(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.Chaos = &fakeChaos{planFails: 100}
	// First window, nothing to fall back on: a hard error is correct.
	if _, err := r.Step(hotelRates(8_000), 1); err == nil {
		t.Fatal("step with no fallback plan should error")
	}
}

func TestStepRepairsContainersLostToFailedHosts(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	if _, err := r.Step(hotelRates(8_000), 1); err != nil {
		t.Fatal(err)
	}
	// Kill a host that holds containers.
	var victim int = -1
	for _, h := range c.Orch.Cluster().Hosts() {
		if len(h.Containers()) > 0 {
			victim = h.ID
			break
		}
	}
	if victim < 0 {
		t.Fatal("no host with containers")
	}
	lost := len(c.Orch.Cluster().Host(victim).Containers())
	if err := c.Orch.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Step(hotelRates(8_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired < lost {
		t.Fatalf("repaired %d containers, want at least the %d lost", rep.Repaired, lost)
	}
	if got := len(c.Orch.Cluster().Host(victim).Containers()); got != 0 {
		t.Fatalf("repair placed %d containers on the down host", got)
	}
}

func TestStepObservabilityGapStillMeasures(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.WarmupMin = 0.2
	r.Chaos = &fakeChaos{gap: true}
	rep, err := r.Step(hotelRates(8_000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ObsGap {
		t.Fatal("window not marked as an observability gap")
	}
	if len(rep.Violations) == 0 {
		t.Fatal("gap window lost its end-to-end measurements")
	}
}
