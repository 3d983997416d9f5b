package sim

import (
	"fmt"
	"sort"

	"erms/internal/cluster"
	"erms/internal/parallel"
)

// SimMode selects the fidelity of a partitioned run.
type SimMode int

const (
	// SimExact runs every partition on the exact discrete-event engine.
	SimExact SimMode = iota
	// SimHybrid enables the fluid fast path (Config.Fluid semantics) inside
	// every partition: far-from-knee microservices are served analytically,
	// near-knee ones exactly.
	SimHybrid
)

// PartitionOpts configures Run. The zero value is the serial case: the whole
// Config on one engine.
type PartitionOpts struct {
	// Mode selects exact or hybrid fidelity. Exact mode with a single
	// sharing group is byte-identical to Runtime.Run on the same Config.
	Mode SimMode
	// Partitions caps how many sharing-group partitions advance concurrently
	// (each worker task owns a deterministic strided subset). 0 runs one
	// task per group. The value changes scheduling only — results are
	// byte-identical for any Partitions and any parallel.SetWorkers count,
	// because the partition split itself is always by sharing group.
	Partitions int
	// Fluid tunes the hybrid fast path; nil uses FluidConfig defaults.
	// Ignored in SimExact mode.
	Fluid *FluidConfig
}

// Run is the simulator's entry point: it executes one simulation of cfg.
// With the zero PartitionOpts (exact mode, Partitions 0) the whole Config —
// cfg.Fluid included — runs serially on a single engine; any other options
// split the run by sharing group (RunPartitioned), which in exact mode is
// byte-identical to the serial run for single-group topologies.
func Run(cfg Config, opts PartitionOpts) (*Result, error) {
	if opts.Mode == SimExact && opts.Partitions == 0 {
		return runSingle(cfg)
	}
	return RunPartitioned(cfg, opts)
}

// runSingle runs cfg on one engine.
func runSingle(cfg Config) (*Result, error) {
	rt, err := NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return rt.Run(), nil
}

// RunPartitioned executes one simulation split into sharing-group partitions
// that advance in lockstep over minute-boundary barriers on the
// internal/parallel pool.
//
// The partition unit is the service sharing group (the union-find closure of
// services connected by shared microservices — the same grouping the
// multiplexing planner uses): requests never cross group boundaries, so each
// group is an independent event stream given (a) its own seed derived from
// (Config.Seed, group index) and (b) the cross-group coupling through host
// interference. The latter is resolved conservatively at minute boundaries:
// each partition simulates on a cluster clone holding only its own
// containers, with every other partition's per-host CPU/memory footprint
// folded in as external usage (cluster.Host.SetExternalUsage), re-exchanged
// at every barrier. Within a minute a partition therefore sees the others'
// load as of the last boundary — the window-boundary synchronization the
// per-minute interference model already assumes.
//
// Determinism: the split, the per-partition seeds, and the merge order
// depend only on Config, so results are byte-identical at any worker count
// and any PartitionOpts.Partitions value. Sampled-trace observers fire after
// the run, in group order, with trace IDs offset per group so they stay
// unique across partitions.
func RunPartitioned(cfg Config, opts PartitionOpts) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var fl *FluidConfig
	if opts.Mode == SimHybrid {
		c := FluidConfig{}
		if opts.Fluid != nil {
			c = *opts.Fluid
		}
		fl = &c
	}

	groups := sharingGroups(cfg)
	if len(groups) == 1 {
		// One group: the partitioned run degenerates to the single-stream
		// engine on the original cluster — in exact mode this is the
		// byte-identical serial path.
		sub := cfg
		sub.Fluid = fl
		return runSingle(sub)
	}

	parts := make([]*partition, len(groups))
	hostN := cfg.Cluster.NumHosts()
	for gi, grp := range groups {
		p, err := buildPartition(cfg, fl, gi, grp)
		if err != nil {
			return nil, fmt.Errorf("sim: partition %d: %w", gi, err)
		}
		parts[gi] = p
	}

	// Initial external usage: every other partition's placed requests.
	exchange := func() {
		totCPU := make([]float64, hostN)
		for _, p := range parts {
			for h := range p.ownCPU {
				p.ownCPU[h] = 0
			}
			for i, c := range p.conts {
				p.ownCPU[p.contHost[i]] += c.CPUUsage()
			}
			for h := 0; h < hostN; h++ {
				totCPU[h] += p.ownCPU[h]
			}
		}
		for _, p := range parts {
			for h := 0; h < hostN; h++ {
				p.sub.Host(h).SetExternalUsage(totCPU[h]-p.ownCPU[h], p.extMem[h])
			}
		}
	}
	exchange()

	bins := opts.Partitions
	if bins <= 0 || bins > len(parts) {
		bins = len(parts)
	}
	runAll := func(fn func(*partition)) {
		// Strided bins: partition i always runs in bin i%bins, so the
		// work-to-task assignment is independent of the worker count.
		_ = parallel.ForEach(bins, func(b int) error {
			for i := b; i < len(parts); i += bins {
				fn(parts[i])
			}
			return nil
		})
	}

	for gi, p := range parts {
		rt, err := NewRuntime(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: partition %d: %w", gi, err)
		}
		p.rt = rt
	}
	runAll(func(p *partition) { p.rt.setup() })

	endMs := cfg.DurationMin * 60_000
	for m := 1; m <= int(cfg.DurationMin); m++ {
		t := float64(m) * 60_000
		runAll(func(p *partition) { p.rt.advanceTo(t) })
		exchange()
	}
	runAll(func(p *partition) { p.rt.advanceTo(endMs + drainMs) })

	return mergeResults(cfg, parts), nil
}

// partition is one sharing group's slice of a partitioned run.
type partition struct {
	cfg Config
	sub *cluster.Cluster
	rt  *Runtime
	buf *bufObserver

	// conts are the clone's containers (ID order), contHost their host IDs,
	// and orig the matching original containers for final usage copy-back.
	conts    []*cluster.Container
	orig     []*cluster.Container
	contHost []int
	ownCPU   []float64
	extMem   []float64

	streamMap []int // local stream index -> Config.Streams index
}

// sharingGroups unions services that share a microservice and returns the
// groups as sorted service-index lists, ordered by smallest member.
// Microservices deployed on the cluster but absent from every graph ride
// with group 0 so their containers still produce MinuteSamples.
func sharingGroups(cfg Config) [][]int {
	n := len(cfg.Graphs)
	up := make([]int, n)
	for i := range up {
		up[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for up[x] != x {
			up[x] = up[up[x]]
			x = up[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			up[rb] = ra
		}
	}
	owner := make(map[string]int)
	for i, g := range cfg.Graphs {
		for _, ms := range g.Microservices() {
			if first, ok := owner[ms]; ok {
				union(first, i)
			} else {
				owner[ms] = i
			}
		}
	}
	byRoot := make(map[int][]int)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// buildPartition clones the cluster with only the group's containers placed
// and derives the group-local Config.
func buildPartition(cfg Config, fl *FluidConfig, gi int, grp []int) (*partition, error) {
	msSet := make(map[string]bool)
	svcSet := make(map[string]bool)
	for _, si := range grp {
		g := cfg.Graphs[si]
		svcSet[g.Service] = true
		for _, ms := range g.Microservices() {
			msSet[ms] = true
		}
	}
	if gi == 0 {
		// Orphan microservices: placed on the cluster but in no graph.
		known := make(map[string]bool)
		for _, g := range cfg.Graphs {
			for _, ms := range g.Microservices() {
				known[ms] = true
			}
		}
		for _, c := range cfg.Cluster.Containers() {
			if !known[c.Spec.Microservice] {
				msSet[c.Spec.Microservice] = true
			}
		}
	}

	hosts := cfg.Cluster.Hosts()
	sub := cluster.New(len(hosts), hosts[0].Spec)
	for _, h := range hosts {
		sh := sub.Host(h.ID)
		sh.Spec = h.Spec
		sh.Background = h.Background
	}
	p := &partition{
		sub:    sub,
		ownCPU: make([]float64, len(hosts)),
		extMem: make([]float64, len(hosts)),
	}
	for _, c := range cfg.Cluster.Containers() {
		if !msSet[c.Spec.Microservice] {
			// Static memory exchange: containers simulated elsewhere still
			// occupy their requested memory on this host.
			p.extMem[c.Host.ID] += c.Spec.MemMB
			continue
		}
		cc, err := sub.Place(c.Spec, c.Host.ID)
		if err != nil {
			return nil, err
		}
		p.conts = append(p.conts, cc)
		p.orig = append(p.orig, c)
		p.contHost = append(p.contHost, c.Host.ID)
	}
	for _, h := range hosts {
		sh := sub.Host(h.ID)
		sh.SetDown(h.Down())
		sh.SetCordoned(h.Cordoned())
	}

	sc := cfg
	sc.Seed = partitionSeed(cfg.Seed, gi)
	sc.Cluster = sub
	sc.Fluid = fl
	sc.Graphs = nil
	for _, si := range grp {
		sc.Graphs = append(sc.Graphs, cfg.Graphs[si])
	}
	sc.Failures = nil
	for _, f := range cfg.Failures {
		if f.Microservice == "" || msSet[f.Microservice] {
			sc.Failures = append(sc.Failures, f)
		}
	}
	sc.Streams = nil
	for i, s := range cfg.Streams {
		if svcSet[s.Service] {
			sc.Streams = append(sc.Streams, s)
			p.streamMap = append(p.streamMap, i)
		}
	}
	if cfg.Observer != nil {
		p.buf = &bufObserver{}
		sc.Observer = p.buf
	}
	p.cfg = sc
	return p, nil
}

// partitionSeed derives a partition's RNG seed from the run seed and the
// group index (splitmix64 finalizer over a golden-ratio offset), mirroring
// the per-index-seed contract the parallel experiment drivers use.
func partitionSeed(seed uint64, gi int) uint64 {
	z := seed + (uint64(gi)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bufObserver buffers sampled spans during a partitioned run; they replay to
// the real observer in group order after the merge.
type bufObserver struct {
	recs []CallRecord
}

func (b *bufObserver) ObserveCall(r CallRecord) { b.recs = append(b.recs, r) }

// mergeResults folds the partitions' results deterministically (group order,
// then canonical sorts) and mirrors the clones' final container usage back
// onto the original cluster so post-run utilization reads match a serial run.
func mergeResults(cfg Config, parts []*partition) *Result {
	out := &Result{
		PerService:     make(map[string]*ServiceResult),
		ServiceMSCalls: make(map[string]map[string]float64),
		SimulatedMin:   cfg.DurationMin - cfg.WarmupMin,
		Partitions:     len(parts),
	}
	if len(cfg.Streams) > 0 {
		out.PerStream = make([]*StreamResult, len(cfg.Streams))
	}
	for _, p := range parts {
		r := p.rt.finish()
		for svc, sr := range r.PerService {
			out.PerService[svc] = sr
		}
		for svc, rates := range r.ServiceMSCalls {
			out.ServiceMSCalls[svc] = rates
		}
		out.Samples = append(out.Samples, r.Samples...)
		out.Engine.Events += r.Engine.Events
		out.Engine.JobsAllocated += r.Engine.JobsAllocated
		out.Engine.JobsRecycled += r.Engine.JobsRecycled
		if r.Engine.HeapPeak > out.Engine.HeapPeak {
			out.Engine.HeapPeak = r.Engine.HeapPeak
		}
		out.Data = out.Data.add(r.Data)
		for li, sr := range r.PerStream {
			out.PerStream[p.streamMap[li]] = sr
		}
		for _, sm := range r.StreamMinutes {
			sm.Stream = p.streamMap[sm.Stream]
			out.StreamMinutes = append(out.StreamMinutes, sm)
		}
		out.FluidContainerMinutes += r.FluidContainerMinutes
		out.ExactContainerMinutes += r.ExactContainerMinutes
		for i, c := range p.conts {
			p.orig[i].SetCPUUsage(c.CPUUsage())
		}
	}
	sort.SliceStable(out.Samples, func(i, j int) bool {
		a, b := out.Samples[i], out.Samples[j]
		if a.Minute != b.Minute {
			return a.Minute < b.Minute
		}
		return a.Microservice < b.Microservice
	})
	sort.SliceStable(out.StreamMinutes, func(i, j int) bool {
		a, b := out.StreamMinutes[i], out.StreamMinutes[j]
		if a.Minute != b.Minute {
			return a.Minute < b.Minute
		}
		return a.Stream < b.Stream
	})
	if cfg.Observer != nil {
		// Replay sampled spans in group order. Trace IDs are unique within a
		// partition; the per-group offset keeps them unique across the run.
		for gi, p := range parts {
			base := int64(gi) << 40
			for _, rec := range p.buf.recs {
				rec.TraceID += base
				cfg.Observer.ObserveCall(rec)
			}
		}
	}
	return out
}

// add sums two DataStats field-wise.
func (d DataStats) add(o DataStats) DataStats {
	d.Attempts += o.Attempts
	d.Timeouts += o.Timeouts
	d.Retries += o.Retries
	d.RetryBudgetExhausted += o.RetryBudgetExhausted
	d.BreakerOpens += o.BreakerOpens
	d.BreakerShortCircuits += o.BreakerShortCircuits
	d.Shed += o.Shed
	for i := range d.ShedByTier {
		d.ShedByTier[i] += o.ShedByTier[i]
	}
	d.CrashFailures += o.CrashFailures
	d.DeadlineSkips += o.DeadlineSkips
	d.Unavailable += o.Unavailable
	return d
}
