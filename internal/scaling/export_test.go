package scaling

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
