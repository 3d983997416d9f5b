package experiments

import (
	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/kube"
	"erms/internal/provision"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/stats"
	"erms/internal/workload"
)

// The heterogeneous colocation of the §6 testbed (figs 12 and 13): half the
// hosts run heavy batch jobs, half are cool, averaging to the planned-for
// staticBackground.
var (
	testbedHot  = workload.Interference{CPU: 0.55, Mem: 0.55}
	testbedCool = workload.Interference{CPU: 0.15, Mem: 0.15}
)

// testbedThinkMs is the think time of the closed-loop (wrk-style) clients of
// figs 13 and 15.
const testbedThinkMs = 1000.0

// closedLoopUsers declares one standard-tier closed-loop stream per service,
// in graph order, its population sized to offer rate requests per minute.
// Closed-loop load self-throttles under saturation, so violating deployments
// report bounded factors rather than open-loop queue blow-ups (the paper's
// load generator is likewise closed-loop).
func closedLoopUsers(app *apps.App, rate float64) []sim.Stream {
	streams := make([]sim.Stream, len(app.Graphs))
	for i, g := range app.Graphs {
		users := int(rate * (testbedThinkMs + 30) / 60000)
		streams[i] = sim.Stream{Cohort: g.Service, Service: g.Service, Tier: workload.TierStandard, Users: users}
	}
	return streams
}

// testbedScheduler picks the placement policy a planner deploys through:
// Erms' provisioning module sees the interference, the baselines use the
// stock (request-balancing, batch-blind) scheduler.
func testbedScheduler(p planner) kube.Scheduler {
	if p.name == "erms" {
		return &provision.InterferenceAware{Groups: 4}
	}
	return kube.BlindSpread{}
}

// testbedOutcome folds one testbed run over the app's services.
type testbedOutcome struct {
	viol      float64 // mean SLA violation rate
	tail      float64 // mean P95 / SLA
	worstTail float64 // worst P95 / SLA
}

// measureOnTestbed deploys counts through sched, in sorted microservice
// order, on the 20-host testbed cluster — even hosts under the hot
// background, odd hosts under the cool one — and measures real end-to-end
// behaviour against a uniform slaMs SLA. load carries what differs between
// figures: seed, the arrival side (Patterns, or closed-loop Streams and
// ThinkTimeMs), priorities and δ, and the window geometry; cluster,
// interference model, application and SLAs are filled in here.
func measureOnTestbed(app *apps.App, sched kube.Scheduler, counts map[string]int,
	hot, cool workload.Interference, slaMs float64, load sim.Config) (testbedOutcome, error) {
	cl := cluster.New(20, cluster.PaperHost)
	for _, h := range cl.Hosts() {
		bg := cool
		if h.ID%2 == 0 {
			bg = hot
		}
		cl.SetBackground(h.ID, bg)
	}
	orch := kube.New(cl, sched)
	for _, ms := range sortutil.Keys(counts) {
		if err := orch.Apply(app.Containers[ms], counts[ms]); err != nil {
			return testbedOutcome{}, err
		}
	}
	load.Cluster = cl
	load.Interference = cluster.DefaultInterference
	load.Profiles = app.Profiles
	load.Graphs = app.Graphs
	load.SLAs = make(map[string]workload.SLA, len(app.Graphs))
	for _, g := range app.Graphs {
		load.SLAs[g.Service] = workload.P95SLA(g.Service, slaMs)
	}
	res, err := sim.Run(load, sim.PartitionOpts{})
	if err != nil {
		return testbedOutcome{}, err
	}
	return foldTestbed(res.PerService, func(sr *sim.ServiceResult) (float64, float64) {
		return sr.ViolationRate(), sr.P95() / slaMs
	}), nil
}

// foldTestbed folds each service's violation rate and P95/SLA ratio, as
// sample reads them, in service order so the means are bit-stable.
func foldTestbed[R any](per map[string]R, sample func(R) (viol, over float64)) testbedOutcome {
	var viol, tail stats.Moments
	var out testbedOutcome
	for _, svc := range sortutil.Keys(per) {
		v, over := sample(per[svc])
		viol.Add(v)
		tail.Add(over)
		if over > out.worstTail {
			out.worstTail = over
		}
	}
	out.viol, out.tail = viol.Mean(), tail.Mean()
	return out
}
