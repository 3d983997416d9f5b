package apps

import (
	"fmt"
	"math"

	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// AlibabaConfig parameterizes the synthetic production-trace generator that
// substitutes for the Alibaba microservice traces (§6.5, Fig. 2). Services
// draw most of their microservices from a shared infrastructure pool with
// Zipf popularity, which reproduces the heavy sharing of the production
// clusters: a core of popular microservices is multiplexed by hundreds of
// services while the tail is service-private.
type AlibabaConfig struct {
	Seed uint64
	// Services is the number of online services. Default 500 (Taobao scale).
	Services int
	// MeanGraphSize is the average dependency-graph size. Default 50
	// ("each service contains 50 microservices on average", §6.5).
	MeanGraphSize int
	// PoolSize is the shared-infrastructure pool size. Default 450.
	PoolSize int
	// SharedFrac is the probability a non-root node draws from the pool
	// rather than creating a service-private microservice. Default 0.8.
	SharedFrac float64
	// ZipfS is the Zipf popularity exponent over the pool. Default 0.6.
	ZipfS float64
}

// alibabaMaxStageWidth bounds the parallel fan-out of one stage.
const alibabaMaxStageWidth = 3

func (c AlibabaConfig) withDefaults() AlibabaConfig {
	if c.Services <= 0 {
		c.Services = 500
	}
	if c.MeanGraphSize <= 0 {
		c.MeanGraphSize = 50
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 450
	}
	if c.SharedFrac <= 0 {
		c.SharedFrac = 0.8
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 0.6
	}
	return c
}

// TaobaoConfig is the §6.5 trace-driven simulation scale: 500+ services,
// ~50 microservices per service, 300+ shared microservices.
func TaobaoConfig(seed uint64) AlibabaConfig {
	return AlibabaConfig{Seed: seed, Services: 500, MeanGraphSize: 50, PoolSize: 450, SharedFrac: 0.8, ZipfS: 0.6}
}

// Fig2Config reproduces the sharing-degree CDF shape of Fig. 2 at a reduced
// but structurally faithful scale: 1000 services whose graphs draw almost
// exclusively from a popular shared pool, so a large fraction of
// microservices end up shared by more than 100 services.
func Fig2Config(seed uint64) AlibabaConfig {
	return AlibabaConfig{Seed: seed, Services: 1000, MeanGraphSize: 300, PoolSize: 2000, SharedFrac: 0.99, ZipfS: 0.3}
}

// zipf samples ranks in [0, n) with probability proportional to 1/(rank+1)^s.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) sample(r *stats.RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Alibaba generates a synthetic production-scale application from the
// configuration. The result is deterministic for a fixed seed.
func Alibaba(cfg AlibabaConfig) *App {
	cfg = cfg.withDefaults()
	r := stats.NewRNG(cfg.Seed)
	profiles := make(map[string]sim.ServiceProfile)
	slas := make(map[string]workload.SLA)

	randProfile := func() sim.ServiceProfile {
		// Heavy-ish tail of base service times around ~1.5 ms.
		base := stats.LogNormalFromMeanCV(1.5, 0.8).Sample(r)
		if base < 0.2 {
			base = 0.2
		}
		if base > 8 {
			base = 8
		}
		return sim.ServiceProfile{BaseMs: base, CV: 0.5}
	}

	pool := make([]string, cfg.PoolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("infra-%04d", i)
		profiles[pool[i]] = randProfile()
	}
	pop := newZipf(cfg.PoolSize, cfg.ZipfS)

	graphs := make([]*graph.Graph, 0, cfg.Services)
	for s := 0; s < cfg.Services; s++ {
		svc := fmt.Sprintf("service-%04d", s)
		entry := fmt.Sprintf("%s-entry", svc)
		profiles[entry] = sim.ServiceProfile{BaseMs: 0.5, CV: 0.3}
		g := graph.New(svc, entry)

		// Target size: lognormal around the mean, at least 3 nodes.
		target := int(stats.LogNormalFromMeanCV(float64(cfg.MeanGraphSize), 0.4).Sample(r))
		if target < 3 {
			target = 3
		}
		privateID := 0
		open := []*graph.Node{g.Root}
		for g.Len() < target && len(open) > 0 {
			pi := r.Intn(len(open))
			parent := open[pi]
			width := 1 + r.Intn(alibabaMaxStageWidth)
			if rem := target - g.Len(); width > rem {
				width = rem
			}
			names := make([]string, width)
			for i := range names {
				if r.Float64() < cfg.SharedFrac {
					names[i] = pool[pop.sample(r)]
				} else {
					names[i] = fmt.Sprintf("%s-ms%03d", svc, privateID)
					privateID++
					profiles[names[i]] = randProfile()
				}
			}
			stage := g.AddStage(parent, names...)
			open = append(open, stage...)
			// Most nodes issue only one or two stages; retire the parent
			// with probability 1/2 to keep graphs tree-like and broad, the
			// shape observed in production ([26], §5.3.3).
			if r.Float64() < 0.5 {
				open = append(open[:pi], open[pi+1:]...)
			}
		}
		// The SLA draw is floored at what an allocation can meet: the
		// heaviest path's idle tail (the analytic models' 3 × BaseMs per
		// hop) with 30 % headroom for interference. A long path would
		// otherwise draw an SLA below its own latency floor.
		floor := 1.3 * 3 * g.EndToEnd(func(n *graph.Node) float64 { return profiles[n.Microservice].BaseMs })
		slas[svc] = workload.P95SLA(svc, max(100+200*r.Float64(), floor))
		graphs = append(graphs, g)
	}
	return newApp(fmt.Sprintf("alibaba-%d", cfg.Seed), graphs, profiles, slas)
}
