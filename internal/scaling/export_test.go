package scaling

import (
	"fmt"
	"slices"
)

// NaivePlan exposes the recursive oracle to the external test package.
var NaivePlan = naivePlan

// CachedPlan exposes cachedPlan to the external test package.
var CachedPlan = cachedPlan

// cachedPlan is one evaluation of the service's template kept in c: Resolve
// (compiling or recompiling as needed), a hit counted when nothing compiled,
// then Template.Plan — the allocations and errors of scaling.Plan.
func cachedPlan(c *TemplateCache, in Input) (*Allocation, error) {
	t, compiled, err := c.Resolve(in)
	if err != nil {
		return nil, err
	}
	if !compiled {
		c.AddHits(1)
	}
	return t.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
}

// at is ms's position in a.Microservices, which indexes its entries in the
// allocation's decision slices; -1 if the service has no such microservice.
func at(a *Allocation, ms string) int { return slices.Index(a.Microservices, ms) }

// containersByName is a's integer container counts keyed by microservice,
// the form EndToEndModelLatency evaluates.
func containersByName(a *Allocation) map[string]int {
	m := make(map[string]int, len(a.Microservices))
	for i, ms := range a.Microservices {
		m[ms] = a.Containers[i]
	}
	return m
}

// Fig7Input exposes the Fig. 7 example service to the external test package.
var Fig7Input = fig7Input

// ShapeErr reports how a breaks the Allocation layout, or nil: Microservices
// is sorted and equals the key set of Targets, and each decision slice has
// its length.
func ShapeErr(a *Allocation) error {
	n := len(a.Microservices)
	switch {
	case !slices.IsSorted(a.Microservices):
		return fmt.Errorf("microservices %v are not sorted", a.Microservices)
	case len(a.Targets) != n:
		return fmt.Errorf("%d targets for %d microservices", len(a.Targets), n)
	case len(a.ContainersRaw) != n || len(a.Containers) != n || len(a.UsedHigh) != n:
		return fmt.Errorf("%d/%d/%d raw/containers/usedHigh for %d microservices",
			len(a.ContainersRaw), len(a.Containers), len(a.UsedHigh), n)
	}
	for i, ms := range a.Microservices {
		if i > 0 && a.Microservices[i-1] == ms {
			return fmt.Errorf("microservice %s listed twice", ms)
		}
		if _, ok := a.Targets[ms]; !ok {
			return fmt.Errorf("no target for microservice %s", ms)
		}
	}
	return nil
}
