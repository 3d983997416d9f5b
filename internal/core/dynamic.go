package core

import (
	"errors"
	"fmt"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/workload"
)

// DynamicGraphResult compares the two ways of scaling a service whose
// requests follow different dependency-graph variants (§7): planning one
// complete (union) graph for the full workload versus clustering variants
// into classes and scaling each class for its own share — the improvement
// the paper sketches in its conclusion (§9).
type DynamicGraphResult struct {
	// Classes is the number of variant classes found.
	Classes int
	// CompleteContainers is the total under complete-graph planning.
	CompleteContainers int
	// ClassContainers is the total under per-class planning.
	ClassContainers int
	// Saving is 1 − class/complete (positive when clustering helps).
	Saving float64
}

// DynamicGraphPlan scales a dynamic-graph service both ways.
//
// variants are the observed dependency graphs of the service; weights[i] is
// the fraction of requests following variants[i] (they are normalized, and
// uniform when nil). rate is the service's total request rate (req/min).
// threshold is the clustering similarity in [0,1].
func DynamicGraphPlan(
	service string,
	variants []*graph.Graph,
	weights []float64,
	rate float64,
	sla workload.SLA,
	models map[string]profiling.Model,
	shares map[string]float64,
	cpuUtil, memUtil float64,
	threshold float64,
) (*DynamicGraphResult, error) {
	if len(variants) == 0 {
		return nil, errors.New("core: no graph variants")
	}
	if weights == nil {
		weights = make([]float64, len(variants))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(variants) {
		return nil, errors.New("core: weights/variants length mismatch")
	}
	var wSum float64
	for _, w := range weights {
		if w < 0 {
			return nil, errors.New("core: negative weight")
		}
		wSum += w
	}
	if wSum <= 0 {
		return nil, errors.New("core: zero total weight")
	}

	planGraph := func(g *graph.Graph, r float64) (*scaling.Allocation, error) {
		in := scaling.Input{
			Graph:     g,
			SLA:       workload.SLA{Service: g.Service, Threshold: sla.Threshold, Percentile: sla.Percentile},
			Models:    models,
			Shares:    shares,
			Workloads: make(map[string]float64),
			CPUUtil:   cpuUtil,
			MemUtil:   memUtil,
		}
		mss, counts := g.CallCounts()
		for i, ms := range mss {
			in.Workloads[ms] = r * float64(counts[i])
		}
		return scaling.Plan(in)
	}

	// Complete graph at the full rate: every request is assumed to traverse
	// the union, which over-provisions the variant-specific branches (§7).
	complete, err := graph.Merge(service, variants...)
	if err != nil {
		return nil, err
	}
	completeAlloc, err := planGraph(complete, rate)
	if err != nil {
		return nil, fmt.Errorf("core: complete-graph plan: %w", err)
	}

	// Class-based: cluster variants, attribute each variant's weight to its
	// class, and plan each class for its own share of the rate.
	classes, err := graph.Cluster(service, variants, threshold)
	if err != nil {
		return nil, err
	}
	classWeight := make([]float64, len(classes))
	for vi, v := range variants {
		best, bestSim := 0, -1.0
		for ci, c := range classes {
			if v.Root.Microservice != c.Root.Microservice {
				continue
			}
			if s := graph.Similarity(v, c); s > bestSim {
				best, bestSim = ci, s
			}
		}
		classWeight[best] += weights[vi] / wSum
	}
	result := &DynamicGraphResult{
		Classes:            len(classes),
		CompleteContainers: completeAlloc.TotalContainers(),
	}
	for ci, c := range classes {
		if classWeight[ci] == 0 {
			continue
		}
		alloc, err := planGraph(c, rate*classWeight[ci])
		if err != nil {
			return nil, fmt.Errorf("core: class %d plan: %w", ci, err)
		}
		result.ClassContainers += alloc.TotalContainers()
	}
	if result.CompleteContainers > 0 {
		result.Saving = 1 - float64(result.ClassContainers)/float64(result.CompleteContainers)
	}
	return result, nil
}
