package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/sim"
)

func init() {
	register("figSim", SimScaleOut)
}

// simScenario builds fresh sim configs for the figSim topology: the
// exact-shape scale app with its sharing-group block structure, two
// containers per microservice round-robin over the hosts, and a uniform
// static rate per service. Every call returns a fresh cluster — simulation
// mutates container usage, so configs are single-use.
type simScenario struct {
	app   *apps.App
	hosts int
	rate  float64
	dur   float64
}

func (s simScenario) config() sim.Config {
	cl := cluster.New(s.hosts, cluster.HostSpec{Cores: 32, MemGB: 64})
	mss := s.app.Microservices() // sorted
	host := 0
	for _, ms := range mss {
		for c := 0; c < 2; c++ {
			if _, err := cl.Place(s.app.Containers[ms], host%s.hosts); err != nil {
				panic(fmt.Sprintf("figSim: place %s: %v", ms, err))
			}
			host++
		}
	}
	return sim.Config{
		Seed:           99,
		Cluster:        cl,
		Interference:   defaultInterference(),
		Profiles:       s.app.Profiles,
		Graphs:         s.app.Graphs,
		Patterns:       staticPatterns(uniformRates(s.app, s.rate)),
		SLAs:           s.app.SLAs,
		DurationMin:    s.dur,
		WarmupMin:      0.5,
		NetworkDelayMs: 0.05,
	}
}

// simFingerprint renders a Result's public observable state — per-service
// counts and latency quantiles, minute samples, call rates, engine counters
// — so two runs can be compared for the determinism columns.
func simFingerprint(res *sim.Result) string {
	svcs := make([]string, 0, len(res.PerService))
	for svc := range res.PerService {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	out := ""
	for _, svc := range svcs {
		sr := res.PerService[svc]
		out += fmt.Sprintf("%s %d %d %d %.9f %.9f %.9f\n",
			svc, sr.Count, sr.Violations, sr.Errors, sr.Mean(), sr.P95(), sr.P99())
	}
	for _, s := range res.Samples {
		out += fmt.Sprintf("%+v\n", s)
	}
	out += fmt.Sprintf("%+v %d %d %d\n", res.Engine, res.Partitions,
		res.FluidContainerMinutes, res.ExactContainerMinutes)
	return out
}

// SimScaleOut measures the simulator scale-out layers (ROADMAP item 2): the
// partitioned parallel engine's determinism contract and the hybrid
// fluid/discrete fast path's fidelity and throughput on the shared-pool
// scale topology.
//
// Two tables are emitted. figSim carries only deterministic columns — the
// exact partitioned engine's bit-identity across Partitions settings, the
// hybrid engine's container-minute split, per-service P95 deviation against
// exact, and request conservation — and is pinned byte-identical across
// worker counts by the determinism tests. figSim-time is wall-clock
// (simulated requests per second, hybrid speedup) and excluded from those
// comparisons; BENCH_7.json gates its speedup on the benchmark topology.
func SimScaleOut(quick bool) []*Table {
	services, msPer, degree := 40, 10, 4
	if quick {
		services, msPer, degree = 16, 6, 4
	}
	sc := simScenario{
		app: apps.ScaleTopology(apps.ScaleConfig{
			Seed: 7, Services: services, MicroservicesPerService: msPer, SharingDegree: degree,
		}),
		hosts: 16,
		rate:  2_000,
		dur:   2,
	}

	det := &Table{
		ID:    "figSim",
		Title: "Partitioned parallel simulation + hybrid fluid/discrete fidelity (ROADMAP item 2)",
		Header: []string{"services", "microservices", "partitions",
			"exact: partitions 1 == N", "hybrid fluid share", "P95 dev mean", "P95 dev max",
			"dev <= 30%", "requests conserved"},
	}
	timing := &Table{
		ID:     "figSim-time",
		Title:  "Simulator throughput: serial exact vs partitioned exact vs hybrid (wall-clock)",
		Header: []string{"engine", "wall", "requests/s", "speedup vs serial"},
	}

	timed := func(f func() *sim.Result) (*sim.Result, time.Duration) {
		start := time.Now()
		res := f()
		return res, time.Since(start)
	}
	mustRun := func(opts sim.PartitionOpts) func() *sim.Result {
		return func() *sim.Result {
			res, err := sim.Run(sc.config(), opts)
			if err != nil {
				panic(fmt.Sprintf("figSim: %v", err))
			}
			return res
		}
	}

	// The zero options are the serial engine; a negative Partitions is one
	// task per sharing group.
	serial, serialWall := timed(mustRun(sim.PartitionOpts{}))
	exact, exactWall := timed(mustRun(sim.PartitionOpts{Partitions: -1}))
	exact1 := mustRun(sim.PartitionOpts{Partitions: 1})()
	hybrid, hybridWall := timed(mustRun(sim.PartitionOpts{Mode: sim.SimHybrid}))

	identical := simFingerprint(exact1) == simFingerprint(exact)

	// Fidelity: per-service P95 deviation of hybrid from partitioned exact,
	// and conservation of completed requests.
	var devSum, devMax float64
	conserved := true
	n := 0
	for svc, ex := range exact.PerService {
		hy := hybrid.PerService[svc]
		if hy == nil || hy.Count+hy.Errors != ex.Count+ex.Errors {
			conserved = false
			continue
		}
		if p := ex.P95(); p > 0 {
			d := math.Abs(hy.P95()-p) / p
			devSum += d
			if d > devMax {
				devMax = d
			}
			n++
		}
	}
	devMean := 0.0
	if n > 0 {
		devMean = devSum / float64(n)
	}
	fluidShare := 0.0
	if tot := hybrid.FluidContainerMinutes + hybrid.ExactContainerMinutes; tot > 0 {
		fluidShare = float64(hybrid.FluidContainerMinutes) / float64(tot)
	}

	det.AddRow(
		fmt.Sprintf("%d", services),
		fmt.Sprintf("%d", len(sc.app.Microservices())),
		fmt.Sprintf("%d", exact.Partitions),
		fmt.Sprintf("%v", identical),
		fmt.Sprintf("%.0f%%", 100*fluidShare),
		fmt.Sprintf("%.1f%%", 100*devMean),
		fmt.Sprintf("%.1f%%", 100*devMax),
		fmt.Sprintf("%v", devMax <= 0.30),
		fmt.Sprintf("%v", conserved),
	)

	requests := func(res *sim.Result) (total int) {
		for _, sr := range res.PerService {
			total += sr.Count + sr.Errors
		}
		return total
	}
	addTiming := func(name string, res *sim.Result, wall time.Duration) {
		speedup := float64(serialWall) / float64(wall)
		timing.AddRow(name, fmt.Sprint(wall.Round(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(requests(res))/wall.Seconds()),
			fmt.Sprintf("%.1fx", speedup))
	}
	addTiming("serial exact", serial, serialWall)
	addTiming("partitioned exact", exact, exactWall)
	addTiming("hybrid", hybrid, hybridWall)

	det.AddNote("partitions are service sharing groups; exact mode is bit-identical at any Partitions value and any worker count")
	det.AddNote("P95 dev compares hybrid against partitioned exact per service; requests conserved checks the fluid path drops or duplicates nothing")
	timing.AddNote("BENCH_7.json gates hybrid >= 3x serial-exact requests/s on the benchmark topology (scripts/bench.sh bench7)")
	return []*Table{det, timing}
}
