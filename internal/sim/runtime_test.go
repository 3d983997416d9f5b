package sim

import (
	"math"
	"strings"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/workload"
)

// buildCluster places n containers for each named microservice round-robin
// over hosts.
func buildCluster(t *testing.T, hosts int, counts map[string]int) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(hosts, cluster.PaperHost)
	i := 0
	for ms, n := range counts {
		for k := 0; k < n; k++ {
			if _, err := cl.Place(cluster.PaperContainer(ms), i%hosts); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	return cl
}

func singleMSConfig(t *testing.T, ratePerMin float64, containers int) Config {
	t.Helper()
	g := graph.New("svc", "A")
	return Config{
		Seed:        1,
		Cluster:     buildCluster(t, 4, map[string]int{"A": containers}),
		Profiles:    map[string]ServiceProfile{"A": {BaseMs: 2, CV: 0.5}},
		Graphs:      []*graph.Graph{g},
		Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: ratePerMin}},
		DurationMin: 2,
		WarmupMin:   0.5,
	}
}

func TestLightLoadLatencyNearServiceTime(t *testing.T) {
	cfg := singleMSConfig(t, 600, 4) // 10 req/s over 16 threads: negligible queueing
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	sr := res.PerService["svc"]
	if sr.Count == 0 {
		t.Fatal("no requests measured")
	}
	mean := sr.Mean()
	if mean < 1.9 || mean > 4 {
		t.Fatalf("light-load mean latency = %v ms, want ~2-4", mean)
	}
}

func TestOverloadLatencyGrows(t *testing.T) {
	// One container, 4 threads, 2ms mean: capacity ~ 4*60000/2 = 120k/min.
	light := singleMSConfig(t, 20_000, 1)
	heavy := singleMSConfig(t, 110_000, 1)
	rtL, err := NewRuntime(light)
	if err != nil {
		t.Fatal(err)
	}
	rtH, err := NewRuntime(heavy)
	if err != nil {
		t.Fatal(err)
	}
	pl := rtL.Run().PerService["svc"].P95()
	ph := rtH.Run().PerService["svc"].P95()
	if ph < 2*pl {
		t.Fatalf("near-saturation P95 (%v) should far exceed light-load P95 (%v)", ph, pl)
	}
}

func TestLatencyKneeEmerges(t *testing.T) {
	// Sweep per-container workload; the latency curve must be flat-ish below
	// capacity and steep above — the Fig. 3 shape the profiler relies on.
	var p95s []float64
	rates := []float64{10_000, 40_000, 80_000, 105_000, 115_000}
	for _, rate := range rates {
		cfg := singleMSConfig(t, rate, 1)
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p95s = append(p95s, rt.Run().PerService["svc"].P95())
	}
	// Early growth is small, late growth is large.
	early := p95s[1] - p95s[0]
	late := p95s[4] - p95s[3]
	if late < 3*math.Max(early, 0.1) {
		t.Fatalf("no knee: p95s = %v", p95s)
	}
}

func TestMoreContainersReduceLatency(t *testing.T) {
	few := singleMSConfig(t, 100_000, 1)
	many := singleMSConfig(t, 100_000, 4)
	rtF, _ := NewRuntime(few)
	rtM, _ := NewRuntime(many)
	pf := rtF.Run().PerService["svc"].P95()
	pm := rtM.Run().PerService["svc"].P95()
	if pm >= pf {
		t.Fatalf("scaling out did not help: 1 ctr p95=%v, 4 ctr p95=%v", pf, pm)
	}
}

func TestSequentialVsParallelComposition(t *testing.T) {
	mkCfg := func(parallel bool) Config {
		g := graph.New("svc", "root")
		if parallel {
			g.AddStage(g.Root, "B", "C")
		} else {
			g.AddSequential(g.Root, "B", "C")
		}
		return Config{
			Seed:    2,
			Cluster: buildCluster(t, 4, map[string]int{"root": 2, "B": 2, "C": 2}),
			Profiles: map[string]ServiceProfile{
				"root": {BaseMs: 1}, "B": {BaseMs: 10}, "C": {BaseMs: 10},
			},
			Graphs:      []*graph.Graph{g},
			Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: 600}},
			DurationMin: 2,
			WarmupMin:   0.5,
		}
	}
	rtSeq, err := NewRuntime(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	rtPar, err := NewRuntime(mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	seq := rtSeq.Run().PerService["svc"].Mean()
	par := rtPar.Run().PerService["svc"].Mean()
	// Sequential: ~1+10+10=21; parallel: ~1+10=11 (deterministic service
	// times, so the difference is sharp).
	if seq < par+6 {
		t.Fatalf("sequential mean %v should exceed parallel mean %v by ~10ms", seq, par)
	}
}

func TestInterferenceSlowsRequests(t *testing.T) {
	mk := func(bg workload.Interference) float64 {
		cfg := singleMSConfig(t, 6000, 2)
		cfg.Interference = cluster.DefaultInterference
		for _, h := range cfg.Cluster.Hosts() {
			cfg.Cluster.SetBackground(h.ID, bg)
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run().PerService["svc"].Mean()
	}
	idle := mk(workload.Interference{})
	hot := mk(workload.Interference{CPU: 0.8, Mem: 0.8})
	if hot < idle*1.5 {
		t.Fatalf("interference did not slow requests: idle %v, hot %v", idle, hot)
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := singleMSConfig(t, 6000, 2)
	cfg.DurationMin = 2
	cfg.WarmupMin = 1
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	// ~6000 req/min over 1 measured minute.
	if n := res.PerService["svc"].Count; math.Abs(float64(n)-6000) > 500 {
		t.Fatalf("measured count = %d, want ~6000 (warmup excluded)", n)
	}
	if res.SimulatedMin != 1 {
		t.Fatalf("SimulatedMin = %v", res.SimulatedMin)
	}
	// Minute samples only for the post-warmup minute.
	for _, s := range res.Samples {
		if s.Minute < 1 {
			t.Fatalf("sample from warmup minute %d", s.Minute)
		}
	}
	if len(res.Samples) == 0 {
		t.Fatal("no minute samples")
	}
}

func TestMinuteSampleContents(t *testing.T) {
	cfg := singleMSConfig(t, 12_000, 2)
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	var found bool
	for _, s := range res.Samples {
		if s.Microservice != "A" {
			continue
		}
		found = true
		if s.Containers != 2 {
			t.Fatalf("containers = %d", s.Containers)
		}
		// 12k/min over 2 containers -> ~6k per container per minute.
		if math.Abs(s.PerContainerCalls-6000) > 600 {
			t.Fatalf("per-container calls = %v", s.PerContainerCalls)
		}
		if s.TailMs <= 0 || s.MeanMs <= 0 || s.TailMs < s.MeanMs {
			t.Fatalf("latency aggregates inconsistent: %+v", s)
		}
		if s.CPUUtil < 0 || s.CPUUtil > 1 || s.MemUtil < 0 || s.MemUtil > 1 {
			t.Fatalf("utilization out of range: %+v", s)
		}
	}
	if !found {
		t.Fatal("no sample for microservice A")
	}
}

func TestServiceMSCallRates(t *testing.T) {
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B", "B2")
	cfg := Config{
		Seed:    3,
		Cluster: buildCluster(t, 2, map[string]int{"A": 2, "B": 2, "B2": 2}),
		Profiles: map[string]ServiceProfile{
			"A": {BaseMs: 1}, "B": {BaseMs: 1}, "B2": {BaseMs: 1},
		},
		Graphs:      []*graph.Graph{g},
		Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: 3000}},
		DurationMin: 3,
		WarmupMin:   1,
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	rates := res.ServiceMSCalls["svc"]
	for _, ms := range []string{"A", "B", "B2"} {
		if math.Abs(rates[ms]-3000) > 300 {
			t.Fatalf("call rate at %s = %v, want ~3000", ms, rates[ms])
		}
	}
}

func TestPrioritySchedulingFavorsHighPriority(t *testing.T) {
	// Two services share microservice P near saturation; svc1 has priority.
	g1 := graph.New("svc1", "P")
	g2 := graph.New("svc2", "P")
	mk := func(withPriority bool) (float64, float64) {
		cfg := Config{
			Seed:     5,
			Cluster:  buildCluster(t, 2, map[string]int{"P": 1}),
			Profiles: map[string]ServiceProfile{"P": {BaseMs: 2, CV: 0.5}},
			Graphs:   []*graph.Graph{g1, g2},
			Patterns: map[string]workload.Pattern{
				"svc1": workload.Static{Rate: 55_000},
				"svc2": workload.Static{Rate: 55_000},
			},
			DurationMin: 2,
			WarmupMin:   0.5,
		}
		if withPriority {
			cfg.Priorities = map[string]map[string]int{"P": {"svc1": 0, "svc2": 1}}
			cfg.Delta = 0.05
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		return res.PerService["svc1"].P95(), res.PerService["svc2"].P95()
	}
	f1, f2 := mk(false)
	p1, p2 := mk(true)
	// Under FCFS both services see similar latency; with priority svc1
	// improves at svc2's expense.
	if p1 >= f1 {
		t.Fatalf("priority did not improve svc1: fcfs=%v prio=%v", f1, p1)
	}
	if p2 <= p1 {
		t.Fatalf("low-priority service should be slower: p1=%v p2=%v", p1, p2)
	}
	_ = f2
}

func TestSLAViolationCounting(t *testing.T) {
	cfg := singleMSConfig(t, 6000, 2)
	cfg.SLAs = map[string]workload.SLA{"svc": workload.P95SLA("svc", 0.001)}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	sr := res.PerService["svc"]
	if sr.ViolationRate() < 0.99 {
		t.Fatalf("violation rate with impossible SLA = %v", sr.ViolationRate())
	}
	cfg2 := singleMSConfig(t, 6000, 2)
	cfg2.SLAs = map[string]workload.SLA{"svc": workload.P95SLA("svc", 10_000)}
	rt2, _ := NewRuntime(cfg2)
	if vr := rt2.Run().PerService["svc"].ViolationRate(); vr != 0 {
		t.Fatalf("violation rate with generous SLA = %v", vr)
	}
}

type recordingObserver struct{ calls []CallRecord }

func (o *recordingObserver) ObserveCall(c CallRecord) { o.calls = append(o.calls, c) }

func TestSpanObservation(t *testing.T) {
	g := graph.New("svc", "A")
	g.AddSequential(g.Root, "B")
	obs := &recordingObserver{}
	cfg := Config{
		Seed:           7,
		Cluster:        buildCluster(t, 2, map[string]int{"A": 2, "B": 2}),
		Profiles:       map[string]ServiceProfile{"A": {BaseMs: 1}, "B": {BaseMs: 2}},
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"svc": workload.Static{Rate: 6000}},
		DurationMin:    2,
		WarmupMin:      0,
		SampleRate:     0.1,
		Observer:       obs,
		NetworkDelayMs: 0.1,
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if len(obs.calls) == 0 {
		t.Fatal("no spans observed")
	}
	// Roughly 10% of ~12000 requests, two calls each.
	nTraces := map[int64]bool{}
	for _, c := range obs.calls {
		nTraces[c.TraceID] = true
		if c.ClientSend > c.ServerRecv || c.ServerRecv > c.ServerSend || c.ServerSend > c.ClientRecv {
			t.Fatalf("span timestamps out of order: %+v", c)
		}
		if c.ParentNodeID == -1 && c.Microservice != "A" {
			t.Fatalf("root call should be A: %+v", c)
		}
	}
	frac := float64(len(nTraces)) / 12000.0
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("sampled trace fraction = %v, want ~0.1", frac)
	}
	// Each sampled trace should have both calls (A and B).
	byTrace := map[int64]int{}
	for _, c := range obs.calls {
		byTrace[c.TraceID]++
	}
	for id, n := range byTrace {
		if n != 2 {
			t.Fatalf("trace %d has %d calls, want 2", id, n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.New("svc", "A")
	base := Config{
		Cluster:     buildCluster(t, 1, map[string]int{"A": 1}),
		Profiles:    map[string]ServiceProfile{"A": {BaseMs: 1}},
		Graphs:      []*graph.Graph{g},
		Patterns:    map[string]workload.Pattern{"svc": workload.Static{Rate: 10}},
		DurationMin: 1,
	}
	if _, err := NewRuntime(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Cluster = nil
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("nil cluster accepted")
	}
	bad = base
	bad.DurationMin = 0
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad = base
	bad.Patterns = map[string]workload.Pattern{}
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("missing pattern accepted")
	}
	bad = base
	bad.Profiles = map[string]ServiceProfile{}
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("missing profile accepted")
	}
	bad = base
	bad.Cluster = cluster.New(1, cluster.PaperHost) // no containers
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("missing containers accepted")
	}

	// NaN passes every `x < 0` range check and ±Inf most of them: a NaN
	// network delay used to "complete" a run with P95 = NaN, an infinite
	// duration never returned, a NaN timeout silently disabled itself. Each
	// is rejected with the field named.
	nan, inf := math.NaN(), math.Inf(1)
	for field, set := range map[string]func(c *Config, v float64){
		"Config.DurationMin":    func(c *Config, v float64) { c.DurationMin = v },
		"Config.WarmupMin":      func(c *Config, v float64) { c.WarmupMin = v },
		"Config.NetworkDelayMs": func(c *Config, v float64) { c.NetworkDelayMs = v },
		"Config.ThinkTimeMs":    func(c *Config, v float64) { c.ThinkTimeMs = v },
		"Config.Delta":          func(c *Config, v float64) { c.Delta = v },
		"Config.SampleRate":     func(c *Config, v float64) { c.SampleRate = v },

		"Resilience.TimeoutSLAMultiple": func(c *Config, v float64) { c.Resilience = &Resilience{TimeoutSLAMultiple: v} },
		"Resilience.RequestTimeoutMs":   func(c *Config, v float64) { c.Resilience = &Resilience{RequestTimeoutMs: v} },
		"Resilience.AttemptTimeoutMs":   func(c *Config, v float64) { c.Resilience = &Resilience{AttemptTimeoutMs: v} },
		"Resilience.RetryBackoffMs":     func(c *Config, v float64) { c.Resilience = &Resilience{RetryBackoffMs: v} },
		"Resilience.RetryJitter":        func(c *Config, v float64) { c.Resilience = &Resilience{RetryJitter: v} },
		"Resilience.RetryBudget":        func(c *Config, v float64) { c.Resilience = &Resilience{RetryBudget: v} },
		"Resilience.RetryBurst":         func(c *Config, v float64) { c.Resilience = &Resilience{RetryBurst: v} },
		"Resilience.BreakerFailureRate": func(c *Config, v float64) { c.Resilience = &Resilience{BreakerFailureRate: v} },
		"Resilience.BreakerCooldownMs":  func(c *Config, v float64) { c.Resilience = &Resilience{BreakerCooldownMs: v} },
		"Resilience.ShedMaxWaitMs":      func(c *Config, v float64) { c.Resilience = &Resilience{ShedMaxWaitMs: v} },
		"Resilience.TierShedFactors[batch]": func(c *Config, v float64) {
			c.Resilience = &Resilience{TierShedFactors: [workload.NumTiers]float64{workload.TierBatch: v}}
		},
	} {
		for _, v := range []float64{nan, inf, -inf} {
			bad = base
			set(&bad, v)
			if _, err := NewRuntime(bad); err == nil {
				t.Errorf("%s = %v accepted", field, v)
			} else if !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %v: error %q does not name the field", field, v, err)
			}
		}
	}
}

// TestProfileValidation: a profile no service time can be drawn from is
// rejected at construction with the microservice named — it used to panic at
// the first job (BaseMs <= 0 with CV > 0) or schedule an event at time NaN —
// while a zero-cost profile stays valid and runs.
func TestProfileValidation(t *testing.T) {
	for name, p := range map[string]ServiceProfile{
		"zero base with CV":     {BaseMs: 0, CV: 0.5},
		"negative base with CV": {BaseMs: -2, CV: 0.5},
		"negative base":         {BaseMs: -2},
		"NaN base":              {BaseMs: math.NaN()},
		"Inf base":              {BaseMs: math.Inf(1), CV: 0.5},
		"NaN CV":                {BaseMs: 2, CV: math.NaN()},
		"Inf CV":                {BaseMs: 2, CV: math.Inf(1)},
		"negative CV":           {BaseMs: 2, CV: -1},
	} {
		cfg := singleMSConfig(t, 600, 1)
		cfg.Profiles["A"] = p
		_, err := NewRuntime(cfg)
		if err == nil {
			t.Errorf("%s: profile %+v accepted", name, p)
		} else if !strings.Contains(err.Error(), "microservice A") {
			t.Errorf("%s: error %q does not name the microservice", name, err)
		}
		if _, err := RunPartitioned(cfg, PartitionOpts{}); err == nil {
			t.Errorf("%s: RunPartitioned accepted profile %+v", name, p)
		}
	}
	// An unused profile still counts: the fluid path re-fits every deployed
	// microservice, and the reported name must not depend on map order.
	cfg := singleMSConfig(t, 600, 1)
	cfg.Profiles["Z"] = ServiceProfile{BaseMs: math.NaN()}
	cfg.Profiles["Y"] = ServiceProfile{BaseMs: -1}
	if _, err := NewRuntime(cfg); err == nil || !strings.Contains(err.Error(), "microservice Y") {
		t.Errorf("want the smallest bad microservice (Y) named, got %v", err)
	}

	cfg = singleMSConfig(t, 600, 1)
	cfg.Profiles["A"] = ServiceProfile{}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("zero-cost profile rejected: %v", err)
	}
	sr := rt.Run().PerService["svc"]
	if sr.Count == 0 || sr.Mean() != 0 {
		t.Fatalf("zero-cost profile: %d requests, mean latency %v, want > 0 and 0", sr.Count, sr.Mean())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := singleMSConfig(t, 12_000, 2)
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run().PerService["svc"].P95()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestFailureInjectionDegradesAndRecovers(t *testing.T) {
	// Two containers at moderate load; killing one doubles the survivor's
	// load for a minute, then recovery restores the tail.
	mk := func(failures []Failure) (*ServiceResult, []MinuteSample) {
		cfg := singleMSConfig(t, 80_000, 2)
		cfg.DurationMin = 3.5
		cfg.WarmupMin = 0.5
		cfg.Failures = failures
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		return res.PerService["svc"], res.Samples
	}
	healthy, _ := mk(nil)
	failed, samples := mk([]Failure{{Microservice: "A", Index: 0, AtMin: 1.5, RecoverMin: 2.5}})
	if failed.P95() <= healthy.P95() {
		t.Fatalf("failure did not raise tail: %v vs %v", failed.P95(), healthy.P95())
	}
	// During the outage the surviving container absorbs ~all calls; after
	// recovery per-container load rebalances.
	var duringMax, afterMax float64
	for _, s := range samples {
		if s.Minute == 1 && s.PerContainerCalls > duringMax {
			duringMax = s.PerContainerCalls
		}
		if s.Minute == 2 && s.PerContainerCalls > afterMax {
			afterMax = s.PerContainerCalls
		}
	}
	_ = duringMax
	_ = afterMax
	// All requests still complete (work conservation through re-routing).
	if failed.Count < healthy.Count*9/10 {
		t.Fatalf("requests lost: %d vs %d", failed.Count, healthy.Count)
	}
}

func TestFailureAllContainersDownThenRecover(t *testing.T) {
	cfg := singleMSConfig(t, 3_000, 1)
	cfg.DurationMin = 3
	cfg.WarmupMin = 0
	cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.0}}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	sr := res.PerService["svc"]
	// Requests arriving during the blackout wait for recovery but complete.
	if sr.Count < 8000 {
		t.Fatalf("count = %d, want ~9000 (no losses)", sr.Count)
	}
	if sr.P95() < 100 {
		t.Fatalf("p95 = %v, expected large tail from the 30s blackout", sr.P95())
	}
}

func TestFailureInvalidIndexIgnored(t *testing.T) {
	cfg := singleMSConfig(t, 3_000, 1)
	cfg.Failures = []Failure{{Microservice: "A", Index: 7, AtMin: 0.5}}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(); res.PerService["svc"].Count == 0 {
		t.Fatal("no requests completed")
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	// users/(think+latency) law: 100 users, 1s think, ~2ms latency ->
	// ~6000 req/min.
	cfg := singleMSConfig(t, 0, 4)
	cfg.Patterns = nil
	cfg.ClosedUsers = map[string]int{"svc": 100}
	cfg.ThinkTimeMs = 1000
	cfg.DurationMin = 3
	cfg.WarmupMin = 0.5
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	sr := res.PerService["svc"]
	perMin := float64(sr.Count) / res.SimulatedMin
	want := 100.0 * 60000 / (1000 + 2)
	if math.Abs(perMin-want)/want > 0.1 {
		t.Fatalf("closed-loop rate = %v/min, want ~%v", perMin, want)
	}
}

func TestClosedLoopBoundsSaturation(t *testing.T) {
	// A deliberately under-provisioned deployment: open-loop latency would
	// grow without bound over the run; the closed loop self-throttles, so
	// the tail stays bounded by the user population.
	mkClosed := func(users int) float64 {
		cfg := singleMSConfig(t, 0, 1)
		cfg.Patterns = nil
		cfg.ClosedUsers = map[string]int{"svc": users}
		cfg.ThinkTimeMs = 20 // demand ~users*60000/22 >> capacity
		cfg.DurationMin = 2
		cfg.WarmupMin = 0.5
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run().PerService["svc"].P95()
	}
	open := singleMSConfig(t, 140_000, 1) // ~1.2x capacity, open loop
	open.DurationMin = 2
	open.WarmupMin = 0.5
	rtO, err := NewRuntime(open)
	if err != nil {
		t.Fatal(err)
	}
	openP95 := rtO.Run().PerService["svc"].P95()
	closedP95 := mkClosed(120)
	if closedP95 >= openP95 {
		t.Fatalf("closed loop (%v) should bound the open-loop blow-up (%v)", closedP95, openP95)
	}
	// The closed-loop tail scales with the user population, not with time:
	// bounded by roughly users x service time.
	if closedP95 > 120*2*3 {
		t.Fatalf("closed-loop tail %v exceeds the population bound", closedP95)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	cfg := singleMSConfig(t, 0, 1)
	cfg.Patterns = nil // no pattern AND no closed users: invalid
	if _, err := NewRuntime(cfg); err == nil {
		t.Fatal("missing workload accepted")
	}
	cfg.ClosedUsers = map[string]int{"svc": 10}
	if _, err := NewRuntime(cfg); err != nil {
		t.Fatalf("closed-loop config rejected: %v", err)
	}
}

func TestHostScopedFailure(t *testing.T) {
	// Two containers on two distinct hosts under heavy load; a host-scoped
	// failure (empty Microservice) takes down exactly the containers of that
	// host, halving capacity mid-run, and recovery restores them.
	mk := func(failures []Failure) *ServiceResult {
		cfg := singleMSConfig(t, 80_000, 2)
		cfg.DurationMin = 3.5
		cfg.WarmupMin = 0.5
		var victim int
		for _, c := range cfg.Cluster.Containers() {
			if c.Host.ID == 1 {
				victim++
			}
		}
		if victim == 0 {
			t.Fatal("test needs containers on host 1")
		}
		cfg.Failures = failures
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run().PerService["svc"]
	}
	sr := mk([]Failure{{Host: 1, AtMin: 1.5, RecoverMin: 2.5}})
	if sr.Count == 0 {
		t.Fatal("no requests measured")
	}
	healthy := mk(nil)
	if sr.P95() <= healthy.P95() {
		t.Fatalf("host outage did not raise the tail: %v vs %v", sr.P95(), healthy.P95())
	}
	// Work conservation: the surviving hosts absorb the load.
	if sr.Count < healthy.Count*9/10 {
		t.Fatalf("requests lost: %d vs %d", sr.Count, healthy.Count)
	}
}

func TestHostScopedFailureUnknownHostIgnored(t *testing.T) {
	cfg := singleMSConfig(t, 3_000, 2)
	cfg.Failures = []Failure{{Host: 99, AtMin: 0.5}}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(); res.PerService["svc"].Count == 0 {
		t.Fatal("no requests completed")
	}
}

func TestDropMinutesHideSamplesNotResults(t *testing.T) {
	run := func(drop []int) *Result {
		cfg := singleMSConfig(t, 6_000, 2)
		cfg.DurationMin = 4
		cfg.WarmupMin = 1
		cfg.DropMinutes = drop
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run()
	}
	full := run(nil)
	gapped := run([]int{2})
	for _, s := range gapped.Samples {
		if s.Minute == 2 {
			t.Fatal("dropped minute still recorded")
		}
	}
	if len(gapped.Samples) >= len(full.Samples) {
		t.Fatalf("gap did not shrink samples: %d vs %d", len(gapped.Samples), len(full.Samples))
	}
	// End-to-end measurements are the ground truth and are unaffected: the
	// gap hides data from the control plane, not from the experiment.
	if gapped.PerService["svc"].Count != full.PerService["svc"].Count {
		t.Fatalf("drop minutes changed the simulation: %d vs %d requests",
			gapped.PerService["svc"].Count, full.PerService["svc"].Count)
	}
}
