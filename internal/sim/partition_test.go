package sim

import (
	"fmt"
	"strings"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/parallel"
	"erms/internal/workload"
)

// lockstepScenario parameterizes the multi-group topology the partition and
// fidelity tests share: `services` service graphs in sharing blocks of
// `block` (each block's pool microservices are shared only within the block,
// so the run splits into ceil(services/block) partitions).
type lockstepScenario struct {
	services, block  int
	containersPerMS  int
	hosts            int
	ratePerMin       float64
	durationMin      float64
	seed             uint64
	observer         SpanObserver
	failures         []Failure
	streamsOnFirst   bool
	closedUsersFirst int // >0: service 0's one stream is closed-loop with this many users
}

// build constructs a fresh Config (fresh cluster — simulation mutates
// container usage, so every run needs its own).
func (s lockstepScenario) build(t testing.TB) Config {
	t.Helper()
	if s.containersPerMS <= 0 {
		s.containersPerMS = 2
	}
	if s.hosts <= 0 {
		s.hosts = 8
	}
	if s.durationMin <= 0 {
		s.durationMin = 2
	}
	const poolPerBlock = 3
	cl := cluster.New(s.hosts, cluster.HostSpec{Cores: 32, MemGB: 64})
	profiles := make(map[string]ServiceProfile)
	patterns := make(map[string]workload.Pattern)
	slas := make(map[string]workload.SLA)
	var graphs []*graph.Graph
	var streams []Stream
	var msOrder []string
	for i := 0; i < s.services; i++ {
		b := i / s.block
		svc := fmt.Sprintf("svc-%03d", i)
		entry := fmt.Sprintf("entry-%03d", i)
		profiles[entry] = ServiceProfile{BaseMs: 0.8, CV: 0.4}
		msOrder = append(msOrder, entry)
		g := graph.New(svc, entry)
		pool := func(k int) string {
			name := fmt.Sprintf("pool-%02d-%d", b, k%poolPerBlock)
			if _, ok := profiles[name]; !ok {
				profiles[name] = ServiceProfile{BaseMs: 1.2, CV: 0.5}
				msOrder = append(msOrder, name)
			}
			return name
		}
		kids := g.AddStage(g.Root, pool(i), pool(i+1))
		g.AddStage(kids[0], pool(i+2))
		graphs = append(graphs, g)
		patterns[svc] = workload.Static{Rate: s.ratePerMin}
		slas[svc] = workload.P95SLA(svc, 60)
		switch {
		case i == 0 && s.closedUsersFirst > 0:
			delete(patterns, svc)
			streams = append(streams, closedLoop(svc, s.closedUsersFirst)...)
		case i == 0 && s.streamsOnFirst:
			delete(patterns, svc)
			streams = append(streams,
				Stream{Cohort: "crit", Service: svc, Tier: workload.TierCritical, Pattern: workload.Static{Rate: s.ratePerMin * 0.6}},
				Stream{Cohort: "shed", Service: svc, Tier: workload.TierSheddable, Pattern: workload.Static{Rate: s.ratePerMin * 0.4}},
			)
		}
	}
	host := 0
	for _, ms := range msOrder {
		for c := 0; c < s.containersPerMS; c++ {
			spec := cluster.ContainerSpec{Microservice: ms, CPU: 0.1, MemMB: 200, Threads: 4}
			if _, err := cl.Place(spec, host%s.hosts); err != nil {
				t.Fatalf("place %s: %v", ms, err)
			}
			host++
		}
	}
	return Config{
		Seed:           s.seed,
		Cluster:        cl,
		Interference:   cluster.DefaultInterference,
		Profiles:       profiles,
		Graphs:         graphs,
		Patterns:       patterns,
		SLAs:           slas,
		DurationMin:    s.durationMin,
		WarmupMin:      0.5,
		NetworkDelayMs: 0.05,
		Observer:       s.observer,
		Failures:       s.failures,
		Streams:        streams,
	}
}

// fingerprint renders every observable field of a Result (including the
// unexported latency reservoirs) to a canonical string, so byte-identity
// comparisons catch any divergence.
func fingerprint(res *Result, spans []CallRecord) string {
	var sb strings.Builder
	var svcs []string
	for svc := range res.PerService {
		svcs = append(svcs, svc)
	}
	sortStrings(svcs)
	for _, svc := range svcs {
		sr := res.PerService[svc]
		fmt.Fprintf(&sb, "svc %s count=%d viol=%d err=%d lat=%v\n", svc, sr.Count, sr.Violations, sr.Errors, sr.lat.Values())
	}
	for _, s := range res.Samples {
		fmt.Fprintf(&sb, "sample %+v\n", s)
	}
	fmt.Fprintf(&sb, "engine %+v data %+v simmin=%v parts=%d fluidcm=%d exactcm=%d\n",
		res.Engine, res.Data, res.SimulatedMin, res.Partitions, res.FluidContainerMinutes, res.ExactContainerMinutes)
	for _, sr := range res.PerStream {
		fmt.Fprintf(&sb, "stream %v c=%d v=%d e=%d\n", sr.Tier, sr.Count, sr.Violations, sr.Errors)
	}
	for _, sm := range res.StreamMinutes {
		fmt.Fprintf(&sb, "streammin %+v\n", sm)
	}
	for _, r := range spans {
		fmt.Fprintf(&sb, "span %+v\n", r)
	}
	return sb.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

type recObserver struct {
	recs []CallRecord
}

func (r *recObserver) ObserveCall(c CallRecord) { r.recs = append(r.recs, c) }

// TestRunPartitionedExactIdenticalAcrossWorkersAndPartitions is the PR's
// headline determinism contract: in exact mode, the partitioned engine's
// full observable output — latency reservoirs, minute samples,
// stream rows, replayed spans — is byte-identical whether the partitions
// run on one worker or four, and whatever the Partitions cap.
func TestRunPartitionedExactIdenticalAcrossWorkersAndPartitions(t *testing.T) {
	defer parallel.SetWorkers(0)
	run := func(workers, partitions int) string {
		parallel.SetWorkers(workers)
		obs := &recObserver{}
		sc := lockstepScenario{
			services: 9, block: 3, ratePerMin: 600, seed: 42, observer: obs,
			streamsOnFirst: true,
			failures: []Failure{
				{Microservice: "pool-01-0", Index: 0, AtMin: 0.8, RecoverMin: 1.4},
				{Host: 2, AtMin: 1.1, RecoverMin: 1.6},
			},
		}
		res, err := RunPartitioned(sc.build(t), PartitionOpts{Mode: SimExact, Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partitions != 3 {
			t.Fatalf("expected 3 sharing-group partitions, got %d", res.Partitions)
		}
		return fingerprint(res, obs.recs)
	}
	base := run(1, 0)
	for _, tc := range []struct{ workers, partitions int }{{4, 0}, {1, 2}, {4, 2}, {4, 1}} {
		if got := run(tc.workers, tc.partitions); got != base {
			t.Errorf("workers=%d partitions=%d diverges from workers=1 partitions=0", tc.workers, tc.partitions)
		}
	}
}

// TestRunPartitionedHybridDeterministic pins the same invariance for hybrid
// mode (the fluid fast path must not introduce worker-count dependence), and
// that the fast path actually engaged.
func TestRunPartitionedHybridDeterministic(t *testing.T) {
	defer parallel.SetWorkers(0)
	run := func(workers, partitions int) string {
		parallel.SetWorkers(workers)
		sc := lockstepScenario{services: 6, block: 2, ratePerMin: 600, seed: 7}
		res, err := RunPartitioned(sc.build(t), PartitionOpts{Mode: SimHybrid, Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		if res.FluidContainerMinutes == 0 {
			t.Fatal("hybrid run never used the fluid fast path")
		}
		return fingerprint(res, nil)
	}
	base := run(1, 0)
	for _, tc := range []struct{ workers, partitions int }{{4, 0}, {4, 2}} {
		if got := run(tc.workers, tc.partitions); got != base {
			t.Errorf("hybrid workers=%d partitions=%d diverges", tc.workers, tc.partitions)
		}
	}
}

// TestRunPartitionedSingleGroupMatchesSerial pins the degenerate case: one
// sharing group falls back to the single-stream engine, so exact partitioned
// output is byte-identical to Runtime.Run — including the original cluster
// being simulated in place (no clone).
func TestRunPartitionedSingleGroupMatchesSerial(t *testing.T) {
	sc := lockstepScenario{services: 3, block: 3, ratePerMin: 500, seed: 11}
	rt, err := NewRuntime(sc.build(t))
	if err != nil {
		t.Fatal(err)
	}
	serial := fingerprint(rt.Run(), nil)
	res, err := RunPartitioned(sc.build(t), PartitionOpts{Mode: SimExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Fatalf("expected a single partition, got %d", res.Partitions)
	}
	if got := fingerprint(res, nil); got != serial {
		t.Error("single-group partitioned run diverges from the serial engine")
	}
}

// TestRunPartitionedCopiesUsageBack: after a multi-group run, the original
// cluster's container usage must reflect the clones' final state, as a
// serial run would have left it (the controller reads utilization post-run).
func TestRunPartitionedCopiesUsageBack(t *testing.T) {
	sc := lockstepScenario{services: 4, block: 2, ratePerMin: 400, seed: 3}
	cfg := sc.build(t)
	if _, err := RunPartitioned(cfg, PartitionOpts{Mode: SimExact}); err != nil {
		t.Fatal(err)
	}
	for _, c := range cfg.Cluster.Containers() {
		// Post-drain every container is idle; a serial run leaves usage 0.
		if c.CPUUsage() != 0 {
			t.Fatalf("container %d usage %v after run, want 0 (copy-back missing)", c.ID, c.CPUUsage())
		}
	}
}

// TestSharingGroups pins the union-find split itself.
func TestSharingGroups(t *testing.T) {
	sc := lockstepScenario{services: 9, block: 3, ratePerMin: 100, seed: 1}
	cfg := sc.build(t)
	groups := sharingGroups(cfg)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %v", len(groups), groups)
	}
	for gi, grp := range groups {
		want := []int{gi * 3, gi*3 + 1, gi*3 + 2}
		if fmt.Sprint(grp) != fmt.Sprint(want) {
			t.Errorf("group %d = %v, want %v", gi, grp, want)
		}
	}
}

// TestPartitionSeedPinned: a partition's seed is stats.Mix of (run seed,
// group index), bit for bit the splitmix64 value the partition seeds have
// always had.
func TestPartitionSeedPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		gi   int
		want uint64
	}{
		{0, 0, 0xe220a8397b1dcdaf},
		{1, 0, 0x910a2dec89025cc1},
		{42, 1, 0x28efe333b266f103},
		{404, 2, 0x7c0ffc89eb511f02},
		{0xffffffffffffffff, 7, 0x405da438a39e8064},
		{123456789, 1000, 0x341f97c30001f897},
	} {
		if got := partitionSeed(tc.seed, tc.gi); got != tc.want {
			t.Errorf("partitionSeed(%d, %d) = %#016x, want %#016x", tc.seed, tc.gi, got, tc.want)
		}
	}
}
