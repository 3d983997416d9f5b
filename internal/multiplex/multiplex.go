// Package multiplex implements Erms' handling of shared microservices
// (§2.3, §4.3, §5.3.2): priority assignment from initial latency targets,
// the modified cumulative workloads that encode priority scheduling in the
// scaling model, and the three deployment schemes the paper compares —
// priority scheduling, FCFS sharing, and non-sharing — plus the Theorem 1
// resource-usage calculators of Appendix A.
package multiplex

import (
	"sort"

	"erms/internal/scaling"
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

// PlanSchemeCached plans one window from scratch: a fresh IncrementalPlanner
// over the given template cache (nil allocates a private one), so every
// sharing group replans. It survives only because bench/probes.go, which
// changes only in a benchmark PR, times it as the from-scratch reference for
// Controller.Plan; ROADMAP item 8 removes it with that probe's metric.
func PlanSchemeCached(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string, cache *scaling.TemplateCache) (*Plan, error) {
	return NewIncrementalPlanner(cache).PlanScheme(scheme, inputs, loads, shared)
}
