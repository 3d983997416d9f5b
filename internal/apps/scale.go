package apps

import (
	"fmt"

	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// ScaleConfig parameterizes the exact-shape Alibaba-scale topology used by
// the planner scalability harness (BenchmarkIncrementalVsCompiled, bench/'s
// scale workloads).
// Unlike the Zipf-sampled Alibaba generator, every dimension here is exact:
// the app has precisely Services graphs of precisely MicroservicesPerService
// nodes each, and every shared-pool microservice appears in exactly
// SharingDegree distinct services (the final pool entry absorbs any
// remainder). That makes planner measurements comparable across sizes —
// doubling Services doubles planner work, nothing else moves.
type ScaleConfig struct {
	Seed uint64
	// Services is the number of online services. Default 100.
	Services int
	// MicroservicesPerService is the dependency-graph size per service,
	// including the private entry node. Default 50 (§6.5: "each service
	// contains 50 microservices on average"). Minimum 2.
	MicroservicesPerService int
	// SharingDegree is how many distinct services share each pool
	// microservice. Default 10; clamped to [1, Services].
	SharingDegree int
	// MaxStageWidth bounds parallel fan-out per stage. Default 3.
	MaxStageWidth int
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Services <= 0 {
		c.Services = 100
	}
	if c.MicroservicesPerService < 2 {
		if c.MicroservicesPerService <= 0 {
			c.MicroservicesPerService = 50
		} else {
			c.MicroservicesPerService = 2
		}
	}
	if c.SharingDegree <= 0 {
		c.SharingDegree = 10
	}
	if c.SharingDegree > c.Services {
		c.SharingDegree = c.Services
	}
	if c.MaxStageWidth <= 0 {
		c.MaxStageWidth = 3
	}
	return c
}

// ScaleTopology builds the exact-shape app. Every service graph has the same
// deterministic tree structure (stage widths cycle 1..MaxStageWidth), the
// root is a service-private entry microservice, and the remaining
// MicroservicesPerService-1 positions are filled from a shared pool.
//
// Pool assignment walks (slot, service) pairs slot-major and gives each pool
// microservice SharingDegree consecutive pairs; consecutive pairs differ in
// service (a run never spans more than one slot boundary because
// SharingDegree <= Services), so each pool microservice lands in exactly
// SharingDegree distinct services. Profiles and SLAs come from a seeded RNG,
// so the whole app is deterministic in cfg.
func ScaleTopology(cfg ScaleConfig) *App {
	cfg = cfg.withDefaults()
	r := stats.NewRNG(cfg.Seed)
	s, m, d := cfg.Services, cfg.MicroservicesPerService, cfg.SharingDegree

	slots := s * (m - 1)
	poolSize := (slots + d - 1) / d
	pool := make([]string, poolSize)
	profiles := make(map[string]sim.ServiceProfile, poolSize+s)
	for i := range pool {
		pool[i] = fmt.Sprintf("pool-%05d", i)
		base := 0.4 + 2.4*r.Float64()
		profiles[pool[i]] = sim.ServiceProfile{BaseMs: base, CV: 0.5}
	}

	// Per-service slot -> pool index, slot-major so runs of SharingDegree
	// consecutive pairs hit distinct services.
	assign := make([][]int, s)
	for svc := range assign {
		assign[svc] = make([]int, m-1)
	}
	for slot := 0; slot < m-1; slot++ {
		for svc := 0; svc < s; svc++ {
			k := slot*s + svc
			assign[svc][slot] = k / d
		}
	}

	slas := make(map[string]workload.SLA, s)
	graphs := make([]*graph.Graph, 0, s)
	for svc := 0; svc < s; svc++ {
		name := fmt.Sprintf("scale-svc-%05d", svc)
		entry := name + "-entry"
		profiles[entry] = sim.ServiceProfile{BaseMs: 0.5, CV: 0.3}
		g := graph.New(name, entry)

		// Deterministic breadth-first fill: stage widths cycle 1..W, parents
		// taken FIFO, so every service shares one tree shape.
		open := []*graph.Node{g.Root}
		slot := 0
		width := 1
		for slot < m-1 {
			parent := open[0]
			open = open[1:]
			w := width
			width++
			if width > cfg.MaxStageWidth {
				width = 1
			}
			if rem := (m - 1) - slot; w > rem {
				w = rem
			}
			names := make([]string, w)
			for i := range names {
				names[i] = pool[assign[svc][slot]]
				slot++
			}
			open = append(open, g.AddStage(parent, names...)...)
		}
		slas[name] = workload.P95SLA(name, 120+160*r.Float64())
		graphs = append(graphs, g)
	}
	return newApp(fmt.Sprintf("scale-%dx%dx%d", s, m, d), graphs, profiles, slas)
}
