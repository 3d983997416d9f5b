package core

import (
	"math"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/sim"
	"erms/internal/trace"
	"erms/internal/workload"
)

func hotelController(t *testing.T, opts ...Option) *Controller {
	t.Helper()
	orch := kube.New(cluster.NewPaperCluster(), nil)
	c, err := New(apps.HotelReservation(), orch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.UseAnalyticModels()
	return c
}

func hotelRates(rate float64) map[string]float64 {
	return map[string]float64{"search": rate, "recommend": rate, "reserve": rate, "login": rate}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	bad := apps.HotelReservation()
	delete(bad.Profiles, "search")
	if _, err := New(bad, kube.New(cluster.NewPaperCluster(), nil)); err == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestUseAnalyticModels(t *testing.T) {
	c := hotelController(t)
	if len(c.Models) != len(c.App.Microservices()) {
		t.Fatalf("models = %d, want %d", len(c.Models), len(c.App.Microservices()))
	}
}

func TestLoadsMultiplicity(t *testing.T) {
	g := graph.New("svc", "A")
	g.AddSequential(g.Root, "B", "B") // B twice
	app := &apps.App{
		Name:   "dup",
		Graphs: []*graph.Graph{g},
		Profiles: map[string]sim.ServiceProfile{
			"A": {BaseMs: 1}, "B": {BaseMs: 1},
		},
		SLAs: map[string]workload.SLA{"svc": workload.P95SLA("svc", 100)},
		Containers: map[string]cluster.ContainerSpec{
			"A": cluster.PaperContainer("A"), "B": cluster.PaperContainer("B"),
		},
	}
	c, err := New(app, kube.New(cluster.NewPaperCluster(), nil))
	if err != nil {
		t.Fatal(err)
	}
	loads := c.Loads(map[string]float64{"svc": 1000})
	if loads["svc"]["A"] != 1000 || loads["svc"]["B"] != 2000 {
		t.Fatalf("loads = %+v", loads["svc"])
	}
}

func TestPlanRequiresModelsAndRates(t *testing.T) {
	orch := kube.New(cluster.NewPaperCluster(), nil)
	c, err := New(apps.HotelReservation(), orch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(hotelRates(1000)); err == nil {
		t.Fatal("plan without models accepted")
	}
	c.UseAnalyticModels()
	if _, err := c.Plan(map[string]float64{"search": 100}); err == nil {
		t.Fatal("missing rates accepted")
	}
	// Non-finite rates must be rejected by name: NaN slips through every
	// ordered comparison and +Inf plans to infinite latency targets.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		rates := hotelRates(1000)
		rates["reserve"] = bad
		_, err := c.Plan(rates)
		if err == nil {
			t.Fatalf("rate %v accepted", bad)
		}
		if !strings.Contains(err.Error(), "reserve") {
			t.Fatalf("rate %v: error %q does not name the service", bad, err)
		}
	}
}

// TestPlanRefusesUnplannableCounts: a rate can be finite and still ask for
// more containers than an int holds. 1e300 req/min used to plan one container
// per microservice (the float-to-int conversion overflowed negative and was
// clamped); now the plan fails, naming the microservice, with the error the
// from-scratch planner gives. A rate that is merely absurd still plans, and
// every count covers its requirement.
func TestPlanRefusesUnplannableCounts(t *testing.T) {
	c := hotelController(t)
	if _, err := c.Plan(hotelRates(5000)); err != nil { // warm templates: the cached path must refuse too
		t.Fatal(err)
	}
	rates := hotelRates(1e300)
	_, wantErr := multiplex.NewIncrementalPlanner(nil).PlanScheme(c.Scheme, c.planInputs(), c.Loads(rates), c.App.Shared())
	_, err := c.Plan(rates)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("1e300 req/min: controller %v, oracle %v", err, wantErr)
	}
	if want := "multiplex: service login: scaling: microservice frontend needs "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want %q...", err, want)
	}

	plan, err := c.Plan(hotelRates(1e9))
	if err != nil {
		t.Fatalf("1e9 req/min: %v", err)
	}
	for svc, alloc := range plan.PerService {
		for i, raw := range alloc.ContainersRaw {
			if n := alloc.Containers[i]; float64(n) < raw-1e-9 || n < 1 {
				t.Fatalf("%s/%s: %d containers for a requirement of %v", svc, alloc.Microservices[i], n, raw)
			}
		}
	}
}

func TestPlanProducesFullDeployment(t *testing.T) {
	c := hotelController(t)
	plan, err := c.Plan(hotelRates(5000))
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range c.App.Microservices() {
		if plan.Containers[ms] < 1 {
			t.Fatalf("no containers planned for %s", ms)
		}
	}
	// Shared microservices get priority ranks covering their services.
	for _, ms := range c.App.Shared() {
		if len(plan.Ranks[ms]) < 2 {
			t.Fatalf("shared %s has ranks %v", ms, plan.Ranks[ms])
		}
	}
}

func TestPlanFCFSSchemeHasNoRanks(t *testing.T) {
	c := hotelController(t, WithScheme(multiplex.SchemeFCFS))
	plan, err := c.Plan(hotelRates(5000))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ranks != nil {
		t.Fatal("FCFS plan should have no ranks")
	}
	if c.Priorities(plan) != nil {
		t.Fatal("FCFS priorities should be nil")
	}
}

func TestApplyScalesOrchestrator(t *testing.T) {
	c := hotelController(t)
	plan, err := c.Plan(hotelRates(5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if got := c.Orch.TotalReplicas(); got != plan.TotalContainers() {
		t.Fatalf("orchestrator replicas %d != plan %d", got, plan.TotalContainers())
	}
	for ms, n := range plan.Containers {
		if c.Orch.Cluster().CountFor(ms) != n {
			t.Fatalf("%s placed %d, want %d", ms, c.Orch.Cluster().CountFor(ms), n)
		}
	}
}

func TestEvaluateMeetsSLA(t *testing.T) {
	// The headline integration test: Erms plans from analytic models and the
	// simulated deployment actually meets its SLAs (§6.3: violation < 2%).
	c := hotelController(t, WithScheduler(&provision.InterferenceAware{Groups: 4}))
	res, err := planAndEvaluate(c, hotelRates(4000), 2, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for svc, v := range res.Violations {
		if v > 0.05 {
			t.Fatalf("service %s violates SLA %.1f%% of the time (tail %v ms)",
				svc, v*100, res.TailLatency[svc])
		}
	}
	if c.Orch.TotalReplicas() <= 0 {
		t.Fatal("no containers deployed")
	}
}

func TestEvaluatePlanReusesPlan(t *testing.T) {
	c := hotelController(t)
	plan, err := c.Plan(hotelRates(3000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.EvaluatePlan(plan, hotelRates(3000), 1.5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Orch.TotalReplicas() != plan.TotalContainers() {
		t.Fatalf("deployed %d replicas, plan has %d", c.Orch.TotalReplicas(), plan.TotalContainers())
	}
	if len(res.TailLatency) != 4 {
		t.Fatalf("services measured = %d", len(res.TailLatency))
	}
}

func TestPriorityPlanUsesFewerContainersThanFCFS(t *testing.T) {
	// §6.4.2: priority scheduling saves containers relative to FCFS at the
	// same SLAs.
	prio := hotelController(t)
	fcfs := hotelController(t, WithScheme(multiplex.SchemeFCFS))
	rates := hotelRates(20000)
	p1, err := prio.Plan(rates)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := fcfs.Plan(rates)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalContainers() > p2.TotalContainers() {
		t.Fatalf("priority %d > fcfs %d containers", p1.TotalContainers(), p2.TotalContainers())
	}
}

func TestProfileOffline(t *testing.T) {
	// Empirical profiling on a tiny one-microservice app: models get fitted
	// from simulated sweeps.
	g := graph.New("svc", "A")
	app := &apps.App{
		Name:       "tiny",
		Graphs:     []*graph.Graph{g},
		Profiles:   map[string]sim.ServiceProfile{"A": {BaseMs: 20, CV: 0.5}},
		SLAs:       map[string]workload.SLA{"svc": workload.P95SLA("svc", 100)},
		Containers: map[string]cluster.ContainerSpec{"A": cluster.PaperContainer("A")},
	}
	orch := kube.New(cluster.New(4, cluster.PaperHost), nil)
	c, err := New(app, orch)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := c.ProfileOffline(OfflineConfig{
		// Two containers of 4 threads at 20ms: saturation ~24k/min.
		Rates: []float64{2_000, 8_000, 14_000, 19_000, 23_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed fits: %v", failed)
	}
	m, ok := c.Models["A"]
	if !ok {
		t.Fatal("no fitted model for A")
	}
	// The fitted model must predict more latency under heavier load.
	if m.Predict(11_000, 0.1, 0.1) <= m.Predict(1_000, 0.1, 0.1) {
		t.Fatal("fitted model not increasing in workload")
	}
	// At every profiled level it is non-negative and never falls as the
	// workload grows — across the knee, where the high interval pooled over
	// all six levels starts below zero at the lightest one.
	for _, lvl := range workload.InterferenceLevels {
		prev := 0.0
		for w := 0.0; w <= 24_000; w += 250 {
			v := m.Predict(w, lvl.CPU, lvl.Mem)
			if v < prev {
				t.Fatalf("level %+v: Predict(%v) = %v, below %v (knee %v)", lvl, w, v, prev, m.Knee(lvl.CPU, lvl.Mem))
			}
			prev = v
		}
	}
	// Profiling cleaned up after itself.
	if len(orch.Cluster().Containers()) != 0 {
		t.Fatal("profiling left containers behind")
	}
}

func TestEvaluateWithOfflineProfiledModels(t *testing.T) {
	// Full pipeline: profile offline, plan from the fitted models, deploy,
	// and meet the SLA in simulation.
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B")
	app := &apps.App{
		Name:   "pair",
		Graphs: []*graph.Graph{g},
		Profiles: map[string]sim.ServiceProfile{
			"A": {BaseMs: 8, CV: 0.5},
			"B": {BaseMs: 15, CV: 0.5},
		},
		SLAs: map[string]workload.SLA{"svc": workload.P95SLA("svc", 120)},
		Containers: map[string]cluster.ContainerSpec{
			"A": cluster.PaperContainer("A"),
			"B": cluster.PaperContainer("B"),
		},
	}
	orch := kube.New(cluster.New(8, cluster.PaperHost), nil)
	c, err := New(app, orch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProfileOffline(OfflineConfig{
		Rates: []float64{3_000, 12_000, 22_000, 28_000, 31_000},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := planAndEvaluate(c, map[string]float64{"svc": 20_000}, 2, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations["svc"]; v > 0.07 {
		t.Fatalf("violation rate %v with fitted models (tail %v)", v, res.TailLatency["svc"])
	}
}

func TestProfilingPlacementSpreadsOverEveryHost(t *testing.T) {
	// Two containers each of four microservices on eight hosts: one per
	// host, so the sweep's interference reaches every host alike.
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B", "C", "D")
	app := &apps.App{Graphs: []*graph.Graph{g}, Containers: map[string]cluster.ContainerSpec{}}
	for _, ms := range g.Microservices() {
		app.Containers[ms] = cluster.PaperContainer(ms)
	}
	run := cluster.New(8, cluster.PaperHost)
	if err := placeForProfiling(run, app); err != nil {
		t.Fatal(err)
	}
	lo, hi := run.NumContainers(), 0
	counts := make([]int, run.NumHosts())
	for i, h := range run.Hosts() {
		counts[i] = h.NumContainers()
		lo, hi = min(lo, counts[i]), max(hi, counts[i])
	}
	if run.NumContainers() != 4*profileContainersPerMS || hi-lo > 1 {
		t.Fatalf("%d containers over 8 hosts, per host %v: want an even spread", run.NumContainers(), counts)
	}
}

// TestProfileOfflineLeavesClusterAlone: the sweep runs on clones, so
// profiling a deployed controller changes its models and nothing else — the
// orchestrator's replicas still match the live containers and every host
// keeps its background.
func TestProfileOfflineLeavesClusterAlone(t *testing.T) {
	app := &apps.App{
		Name:       "tiny-deployed",
		Graphs:     []*graph.Graph{graph.New("svc", "A")},
		Profiles:   map[string]sim.ServiceProfile{"A": {BaseMs: 20, CV: 0.5}},
		SLAs:       map[string]workload.SLA{"svc": workload.P95SLA("svc", 100)},
		Containers: map[string]cluster.ContainerSpec{"A": cluster.PaperContainer("A")},
	}
	cl := cluster.New(2, cluster.PaperHost)
	orch := kube.New(cl, nil)
	c, err := New(app, orch)
	if err != nil {
		t.Fatal(err)
	}
	if err := orch.Apply(app.Containers["A"], 3); err != nil {
		t.Fatal(err)
	}
	backgrounds := []workload.Interference{{CPU: 0.4}, {CPU: 0.3}}
	for h, bg := range backgrounds {
		if err := cl.SetBackground(h, bg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ProfileOffline(OfflineConfig{Rates: []float64{2_000}}); err != nil {
		t.Fatal(err)
	}
	if live := cl.CountFor("A"); live != orch.Replicas("A") || live != 3 {
		t.Fatalf("after profiling: %d replicas over %d live containers, want 3 over 3", orch.Replicas("A"), live)
	}
	for h, bg := range backgrounds {
		if got := cl.Host(h).Background(); got != bg {
			t.Fatalf("host %d background %+v after profiling, want %+v", h, got, bg)
		}
	}
}

func TestProfileOfflineFromTraces(t *testing.T) {
	// The production profiling path: spans -> Eq. 1 latencies -> fit.
	g := graph.New("svc", "A")
	app := &apps.App{
		Name:       "tiny-traced",
		Graphs:     []*graph.Graph{g},
		Profiles:   map[string]sim.ServiceProfile{"A": {BaseMs: 20, CV: 0.5}},
		SLAs:       map[string]workload.SLA{"svc": workload.P95SLA("svc", 100)},
		Containers: map[string]cluster.ContainerSpec{"A": cluster.PaperContainer("A")},
	}
	orch := kube.New(cluster.New(4, cluster.PaperHost), nil)
	c, err := New(app, orch)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := c.ProfileOffline(OfflineConfig{
		Rates:      []float64{2_000, 8_000, 14_000, 19_000, 23_000},
		FromTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed fits: %v", failed)
	}
	m := c.Models["A"]
	if m.Predict(11_000, 0.1, 0.1) <= m.Predict(1_000, 0.1, 0.1) {
		t.Fatal("trace-fitted model not increasing in workload")
	}
}

func TestMinuteAggregatesMatchDirectSamples(t *testing.T) {
	// Trace-derived workload estimates track the simulator's exact counts.
	g := graph.New("svc", "A")
	cl := cluster.New(2, cluster.PaperHost)
	for i := 0; i < 2; i++ {
		if _, err := cl.Place(cluster.PaperContainer("A"), i); err != nil {
			t.Fatal(err)
		}
	}
	coord := trace.NewCoordinator(0.1)
	rt, err := sim.NewRuntime(sim.Config{
		Seed:        5,
		Cluster:     cl,
		Profiles:    map[string]sim.ServiceProfile{"A": {BaseMs: 2, CV: 0.5}},
		Graphs:      []*graph.Graph{g},
		Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: 12_000}},
		DurationMin: 3,
		WarmupMin:   0,
		SampleRate:  0.1,
		Observer:    coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	aggs := coord.MinuteAggregates(func(string) int { return 2 })
	if len(aggs) == 0 {
		t.Fatal("no aggregates")
	}
	direct := map[int]sim.MinuteSample{}
	for _, s := range res.Samples {
		direct[s.Minute] = s
	}
	for _, a := range aggs {
		d, ok := direct[a.Minute]
		if !ok {
			continue
		}
		if rel := (a.PerContainerCalls - d.PerContainerCalls) / d.PerContainerCalls; rel > 0.15 || rel < -0.15 {
			t.Fatalf("minute %d: trace estimate %.0f vs direct %.0f", a.Minute, a.PerContainerCalls, d.PerContainerCalls)
		}
		if rel := (a.TailMs - d.TailMs) / d.TailMs; rel > 0.35 || rel < -0.35 {
			t.Fatalf("minute %d: trace tail %.2f vs direct %.2f", a.Minute, a.TailMs, d.TailMs)
		}
	}
}

func TestEvaluateWithResilience(t *testing.T) {
	res := &sim.Resilience{
		TimeoutSLAMultiple: 3,
		AttemptTimeoutMs:   50,
		MaxAttempts:        2,
		RetryBudget:        0.1,
	}
	c := hotelController(t, WithResilience(res))
	rec := obs.New(nil)
	c.Obs = rec
	out, err := planAndEvaluate(c, hotelRates(4000), 1.5, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.ErrorRate == nil {
		t.Fatal("resilient evaluation reported no ErrorRate map")
	}
	for svc, er := range out.ErrorRate {
		if er > 0.05 {
			t.Fatalf("service %s errors %.1f%% on a healthy cluster", svc, er*100)
		}
	}
	if out.Goodput <= 0 {
		t.Fatalf("goodput = %v, want > 0", out.Goodput)
	}
	// A well-provisioned plan passes nearly everything within SLA.
	if total := 4 * 4000.0; out.Goodput < total*0.9 {
		t.Fatalf("goodput %v req/min, want ≈ %v", out.Goodput, total)
	}
	// The data-plane counters are mirrored into self-telemetry.
	if got := rec.Value(obs.CtrDataAttempts); got <= 0 {
		t.Fatalf("attempts counter = %v, want > 0", got)
	}
}

// TestEvaluateWithoutResilienceReportsErrorRate: a nil Resilience is the
// zero one, so an evaluation reports ErrorRate and Goodput all the same —
// no errors on a healthy cluster, and once every host fails half-way
// through the window, the requests that found no container up as errors,
// each also a violation.
func TestEvaluateWithoutResilienceReportsErrorRate(t *testing.T) {
	c := hotelController(t)
	rates := hotelRates(3000)
	plan, err := c.Plan(rates)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.EvaluatePlan(plan, rates, 1, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ErrorRate) != len(c.App.Graphs) {
		t.Fatalf("error rates for %d services, want %d: %v", len(out.ErrorRate), len(c.App.Graphs), out.ErrorRate)
	}
	for svc, er := range out.ErrorRate {
		if er != 0 {
			t.Errorf("service %s: error rate %v on a healthy cluster", svc, er)
		}
	}
	if out.Goodput <= 0 {
		t.Fatalf("goodput = %v, want > 0", out.Goodput)
	}

	var outage []sim.Failure
	for h := 0; h < c.Orch.Cluster().NumHosts(); h++ {
		outage = append(outage, sim.Failure{Host: h, AtMin: 0.75})
	}
	out, err = c.EvaluateDeployed(plan, rates, 1, 0.25, 3, EvalOpts{Failures: outage})
	if err != nil {
		t.Fatal(err)
	}
	for svc, er := range out.ErrorRate {
		if er < 0.2 || out.Violations[svc] < er {
			t.Errorf("service %s: error rate %v, violation rate %v after every host failed a third into the measured window",
				svc, er, out.Violations[svc])
		}
	}
}

// planAndEvaluate plans for the given rates, applies the plan, and simulates
// the deployment for durationMin minutes.
func planAndEvaluate(c *Controller, rates map[string]float64, durationMin, warmupMin float64, seed uint64) (*EvalResult, error) {
	plan, err := c.Plan(rates)
	if err != nil {
		return nil, err
	}
	return c.EvaluatePlan(plan, rates, durationMin, warmupMin, seed)
}
