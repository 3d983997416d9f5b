package experiments

import (
	"fmt"

	"erms/internal/graph"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/stats"
	"erms/internal/workload"
)

func init() {
	register("fig21", ExactGap)
}

// chainModel is a single-interval latency model for the gap study.
type chainModel struct{ a, b float64 }

func (m chainModel) Knee(_, _ float64) float64                        { return 1e12 }
func (m chainModel) Params(bool, float64, float64) (float64, float64) { return m.a, m.b }
func (m chainModel) Predict(w, _, _ float64) float64                  { return m.a*w + m.b }

// ExactGap measures how close Erms' scalable per-service decomposition
// (§5.3.2: priority ranks + modified workloads + independent Eq. 5 solves)
// comes to the exact optimum of the coupled multiplexing model (Eq. 13-14),
// solved here by dual ascent. The paper argues the decomposition is
// "theoretically grounded yet practically viable" — this experiment
// quantifies the price of that scalability.
func ExactGap(quick bool) []*Table {
	trials := 120
	if quick {
		trials = 60
	}
	t := &Table{
		ID:     "fig21",
		Title:  "Approximation gap: Erms per-service decomposition vs exact Eq. 13-14 optimum",
		Header: []string{"services sharing P", "mean gap", "p95 gap", "max gap"},
	}
	// Instance generation walks the shared RNG in the original (nSvc, trial)
	// order; the decomposed-vs-exact solves are then pure per instance and
	// fan out, with gaps folded back in generation order.
	sizes := []int{2, 3, 4, 6}
	type instance struct {
		inputs map[string]scaling.Input
		loads  map[string]map[string]float64
		shared []string
		prob   *exactProblemBuilder
	}
	r := stats.NewRNG(29)
	instances := make([]instance, 0, len(sizes)*trials)
	for _, nSvc := range sizes {
		for trial := 0; trial < trials; trial++ {
			inputs, loads, shared, prob := randomExactInstance(r, nSvc)
			instances = append(instances, instance{inputs, loads, shared, prob})
		}
	}
	type trialGap struct {
		ok  bool
		gap float64
	}
	gapsFlat, err := parallel.Map(len(instances), func(i int) (trialGap, error) {
		in := instances[i]
		plan, err := multiplex.NewIncrementalPlanner(nil).PlanScheme(multiplex.SchemePriority, in.inputs, in.loads, in.shared)
		if err != nil {
			return trialGap{}, nil
		}
		// The exact model must see the same priority ranks Erms chose.
		fillProblem(in.prob, plan.Ranks, in.loads)
		sol, err := in.prob.Solve(0, 0)
		if err != nil || sol.Usage <= 0 {
			return trialGap{}, nil
		}
		return trialGap{ok: true, gap: plan.ResourceUsage/sol.Usage - 1}, nil
	})
	if err != nil {
		panic(err)
	}
	for si, nSvc := range sizes {
		var gaps []float64
		for trial := 0; trial < trials; trial++ {
			if g := gapsFlat[si*trials+trial]; g.ok {
				gaps = append(gaps, g.gap)
			}
		}
		if len(gaps) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", nSvc),
			pct(stats.Mean(gaps)), pct(stats.Quantile(gaps, 0.95)), pct(stats.Quantile(gaps, 1)))
	}
	t.AddNote("gap = (decomposed usage / exact optimum) − 1, over %d random shared-chain instances per row", trials)
	t.AddNote("§5.3.2: the exact coupled model is O(n!) in priority orderings and too costly at scale")
	return []*Table{t}
}

// randomExactInstance builds nSvc services, each "own-k → P", with random
// single-interval models, and the matching (partially filled) ExactProblem.
func randomExactInstance(r *stats.RNG, nSvc int) (map[string]scaling.Input, map[string]map[string]float64, []string, *exactProblemBuilder) {
	models := map[string]profiling.Model{}
	shares := map[string]float64{}
	aOf := map[string]float64{}
	bOf := map[string]float64{}

	mkMS := func(name string, aLo, aHi float64) {
		a := aLo + (aHi-aLo)*r.Float64()
		b := 0.5 + 2*r.Float64()
		models[name] = chainModel{a: a, b: b}
		shares[name] = 0.0001 + 0.0004*r.Float64()
		aOf[name], bOf[name] = a, b
	}
	mkMS("P", 0.001, 0.006)

	inputs := map[string]scaling.Input{}
	loads := map[string]map[string]float64{}
	builder := &exactProblemBuilder{
		aOf: aOf, shares: shares,
		slack: map[string]float64{},
	}
	for s := 0; s < nSvc; s++ {
		svc := fmt.Sprintf("svc%c", 'a'+s)
		own := "own-" + svc
		mkMS(own, 0.0005, 0.012)
		g := graph.New(svc, own)
		g.AddStage(g.Root, "P")
		slack := 30 + 150*r.Float64()
		inputs[svc] = scaling.Input{
			Graph:  g,
			SLA:    workload.P95SLA(svc, slack+bOf[own]+bOf["P"]),
			Models: models,
			Shares: shares,
		}
		rate := 2000 + 40000*r.Float64()
		loads[svc] = map[string]float64{own: rate, "P": rate}
		builder.slack[svc] = slack
		builder.services = append(builder.services, svc)
	}
	return inputs, loads, []string{"P"}, builder
}

// exactProblemBuilder assembles the Eq. 13-14 instance once ranks are known.
type exactProblemBuilder struct {
	services []string
	aOf      map[string]float64
	shares   map[string]float64
	slack    map[string]float64
	problem  *multiplex.ExactProblem
}

// fillProblem builds the A matrix using the cumulative workloads implied by
// the plan's priority ranks at P.
func fillProblem(b *exactProblemBuilder, ranks map[string]map[string]int, loads map[string]map[string]float64) {
	modified := multiplex.ModifiedWorkloads(ranks, loads)
	// Microservice order: each service's own ms, then P last.
	var msNames []string
	for _, svc := range b.services {
		msNames = append(msNames, "own-"+svc)
	}
	msNames = append(msNames, "P")
	idx := map[string]int{}
	for i, ms := range msNames {
		idx[ms] = i
	}
	prob := &multiplex.ExactProblem{
		R:     make([]float64, len(msNames)),
		A:     make([][]float64, len(b.services)),
		Slack: make([]float64, len(b.services)),
	}
	for i, ms := range msNames {
		prob.R[i] = b.shares[ms]
	}
	for k, svc := range b.services {
		prob.A[k] = make([]float64, len(msNames))
		own := "own-" + svc
		prob.A[k][idx[own]] = b.aOf[own] * modified[svc][own]
		prob.A[k][idx["P"]] = b.aOf["P"] * modified[svc]["P"]
		prob.Slack[k] = b.slack[svc]
	}
	b.problem = prob
}

// Solve proxies to the built problem.
func (b *exactProblemBuilder) Solve(maxIters int, tol float64) (*multiplex.ExactSolution, error) {
	return b.problem.Solve(maxIters, tol)
}
