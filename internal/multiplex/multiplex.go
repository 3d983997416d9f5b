// Package multiplex implements Erms' handling of shared microservices
// (§2.3, §4.3, §5.3.2): priority assignment from initial latency targets,
// the modified cumulative workloads that encode priority scheduling in the
// scaling model, and the three deployment schemes the paper compares —
// priority scheduling, FCFS sharing, and non-sharing — plus the Theorem 1
// resource-usage calculators of Appendix A.
package multiplex

import (
	"errors"
	"fmt"
	"sort"

	"erms/internal/parallel"
	"erms/internal/scaling"
	"erms/internal/sortutil"
)

// AssignPriorities ranks the services at every shared microservice by their
// initial latency target: the service with the lower target gets the higher
// priority (rank 0), because a low target signals latency-sensitive
// microservices whose requests should be handled first (§5.3.2). Ties break
// by service name for determinism.
func AssignPriorities(initial map[string]*scaling.Allocation, shared []string) map[string]map[string]int {
	ranks := make(map[string]map[string]int, len(shared))
	for _, ms := range shared {
		type st struct {
			svc    string
			target float64
		}
		var list []st
		for svc, alloc := range initial {
			if t, ok := alloc.Targets[ms]; ok {
				list = append(list, st{svc, t})
			}
		}
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].target != list[j].target {
				return list[i].target < list[j].target
			}
			return list[i].svc < list[j].svc
		})
		m := make(map[string]int, len(list))
		for i, s := range list {
			m[s.svc] = i
		}
		ranks[ms] = m
	}
	return ranks
}

// ModifiedWorkloads computes the priority-scheduling workloads of §5.3.2:
// at shared microservice i, the service with priority rank k models the
// cumulative workload Σ_{l ≤ k} γ_{l,i} — its requests wait behind all
// higher-priority traffic. Non-shared microservices keep their own load.
// loads[svc][ms] is each service's own call rate at each microservice.
//
// The cumulative sums are hoisted out of the per-service loop: each shared
// microservice orders its services by rank (dense 0..n-1 as produced by
// AssignPriorities; out-of-range ranks are ignored) and prefix-sums once —
// O(services) per microservice rather than O(services²), and the fold runs
// in rank order so the float sums are bit-stable regardless of map
// iteration order.
func ModifiedWorkloads(ranks map[string]map[string]int, loads map[string]map[string]float64) map[string]map[string]float64 {
	cums := make(map[string]map[string]float64, len(ranks))
	for ms, rank := range ranks {
		byRank := make([]string, len(rank))
		for svc, r := range rank {
			if r >= 0 && r < len(byRank) {
				byRank[r] = svc
			}
		}
		cum := 0.0
		c := make(map[string]float64, len(rank))
		for _, svc := range byRank {
			if svc == "" {
				continue
			}
			cum += loads[svc][ms]
			c[svc] = cum
		}
		cums[ms] = c
	}
	out := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, own := range byMS {
			m[ms] = own
			if cum, ok := cums[ms][svc]; ok {
				m[ms] = cum
			}
		}
		out[svc] = m
	}
	return out
}

// FCFSWorkloads models default FCFS sharing: every service sees the full
// aggregate workload at each shared microservice (all traffic can delay all
// traffic).
func FCFSWorkloads(shared []string, loads map[string]map[string]float64) map[string]map[string]float64 {
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}
	// Fold service contributions in sorted order so each total is bit-stable
	// run to run.
	totals := make(map[string]float64)
	for _, svc := range sortutil.Keys(loads) {
		for ms, g := range loads[svc] {
			if sharedSet[ms] {
				totals[ms] += g
			}
		}
	}
	out := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, own := range byMS {
			if sharedSet[ms] {
				m[ms] = totals[ms]
			} else {
				m[ms] = own
			}
		}
		out[svc] = m
	}
	return out
}

// Scheme names the shared-microservice deployment schemes of §2.3.
type Scheme int

// The three schemes compared in Fig. 5 and §6.4.
const (
	// SchemePriority is Erms' priority scheduling with recomputed targets.
	SchemePriority Scheme = iota
	// SchemeFCFS shares containers with first-come-first-serve queues.
	SchemeFCFS
	// SchemeNonShared partitions containers per service.
	SchemeNonShared
)

func (s Scheme) String() string {
	switch s {
	case SchemePriority:
		return "priority"
	case SchemeFCFS:
		return "fcfs-sharing"
	case SchemeNonShared:
		return "non-sharing"
	default:
		return "unknown"
	}
}

// Plan is a multi-service allocation under one scheme.
//
// A returned Plan is immutable: the incremental planner hands out the
// allocations and rank maps it caches, and replanning swaps objects, never
// edits them, so a Plan stays valid for as long as it is held. Derive a
// variant (e.g. hysteresis-adjusted Containers) as a new Plan value sharing
// PerService and Ranks.
type Plan struct {
	Scheme Scheme
	// PerService holds each service's final allocation.
	PerService map[string]*scaling.Allocation
	// Ranks holds the priority rank per shared microservice per service
	// (only for SchemePriority).
	Ranks map[string]map[string]int
	// Containers is the merged deployment: for shared microservices under
	// priority/FCFS, the max requirement across services; under non-sharing
	// (and for private microservices always), the per-service sum is
	// deployed as disjoint groups but reported against the one microservice
	// name.
	Containers map[string]int
	// ResourceUsage is the merged Σ n_i·R_i with raw (fractional) n.
	ResourceUsage float64
}

// TotalContainers sums merged container counts.
func (p *Plan) TotalContainers() int {
	t := 0
	for _, n := range p.Containers {
		t += n
	}
	return t
}

// PlanScheme computes a multi-service allocation under the given scheme.
//
// inputs[svc] carries each service's graph, SLA, models, shares and the
// cluster utilization; its Workloads field is ignored and replaced according
// to the scheme. loads[svc][ms] is the service's own call rate at each of
// its microservices (requests/minute). shared lists the microservices
// multiplexed across services.
func PlanScheme(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string) (*Plan, error) {
	return PlanSchemeCached(scheme, inputs, loads, shared, nil)
}

// PlanSchemeCached is PlanScheme backed by a template cache: each service's
// per-window scaling plan replays its compiled template instead of
// re-running validation and the Algorithm-1 reduction. The output is
// bit-identical to PlanScheme's, which is this with a nil cache: every
// service's template compiled for the one call.
// Distinct services plan concurrently without contention (the cache is
// keyed by service and each template carries its own lock).
func PlanSchemeCached(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string, cache *scaling.TemplateCache) (*Plan, error) {
	if len(inputs) == 0 {
		return nil, errors.New("multiplex: no services")
	}
	for svc := range inputs {
		if _, ok := loads[svc]; !ok {
			return nil, fmt.Errorf("multiplex: no loads for service %s", svc)
		}
	}
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}

	// Per-service latency-target decomposition: each service's scaling plan
	// is independent (scaling.Plan is pure and only reads the shared maps),
	// so the services fan out across the worker pool. Results merge keyed by
	// a sorted name list, so output is identical at any worker count.
	svcs := make([]string, 0, len(inputs))
	for svc := range inputs {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	planAll := func(workloads map[string]map[string]float64) (map[string]*scaling.Allocation, error) {
		allocs, err := parallel.Map(len(svcs), func(i int) (*scaling.Allocation, error) {
			svc := svcs[i]
			in := inputs[svc]
			in.Workloads = workloads[svc]
			// cache.Plan on a nil cache is scaling.Plan: compile, then plan.
			alloc, err := cache.Plan(in)
			if err != nil {
				return nil, fmt.Errorf("multiplex: service %s: %w", svc, err)
			}
			return alloc, nil
		})
		if err != nil {
			return nil, err
		}
		out := make(map[string]*scaling.Allocation, len(svcs))
		for i, svc := range svcs {
			out[svc] = allocs[i]
		}
		return out, nil
	}

	plan := &Plan{Scheme: scheme, Containers: make(map[string]int)}
	var err error
	switch scheme {
	case SchemeNonShared:
		// Each service plans with its own workload and deploys its own
		// exclusive containers, even at shared microservices.
		plan.PerService, err = planAll(copyLoads(loads))
		if err != nil {
			return nil, err
		}
		for _, svc := range sortutil.Keys(plan.PerService) {
			alloc := plan.PerService[svc]
			for ms, n := range alloc.Containers {
				plan.Containers[ms] += n
			}
			plan.ResourceUsage += alloc.ResourceUsage
		}
		return plan, nil

	case SchemeFCFS:
		plan.PerService, err = planAll(FCFSWorkloads(shared, loads))
		if err != nil {
			return nil, err
		}

	case SchemePriority:
		// 1. Initial targets from each service's own workload.
		initial, err := planAll(copyLoads(loads))
		if err != nil {
			return nil, err
		}
		// 2. Priorities from initial targets; 3. final plan from modified
		// cumulative workloads.
		plan.Ranks = AssignPriorities(initial, shared)
		plan.PerService, err = planAll(ModifiedWorkloads(plan.Ranks, loads))
		if err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("multiplex: unknown scheme %v", scheme)
	}

	// Merge (priority/FCFS): shared microservices deploy the max requirement
	// across services; private ones belong to exactly one service. Iterate
	// services and microservices in sorted order so the usage float sum is
	// bit-stable run to run.
	rawMax := make(map[string]float64)
	shareOf := make(map[string]float64)
	for _, svc := range sortutil.Keys(plan.PerService) {
		alloc := plan.PerService[svc]
		for _, ms := range sortutil.Keys(alloc.Containers) {
			n := alloc.Containers[ms]
			if !sharedSet[ms] {
				plan.Containers[ms] += n
				plan.ResourceUsage += alloc.ContainersRaw[ms] * inputs[svc].Shares[ms]
				continue
			}
			if n > plan.Containers[ms] {
				plan.Containers[ms] = n
			}
			if alloc.ContainersRaw[ms] > rawMax[ms] {
				rawMax[ms] = alloc.ContainersRaw[ms]
			}
			shareOf[ms] = inputs[svc].Shares[ms]
		}
	}
	for _, ms := range sortutil.Keys(rawMax) {
		plan.ResourceUsage += rawMax[ms] * shareOf[ms]
	}
	return plan, nil
}

func copyLoads(loads map[string]map[string]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, g := range byMS {
			m[ms] = g
		}
		out[svc] = m
	}
	return out
}
