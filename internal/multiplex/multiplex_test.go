package multiplex

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/stats"
	"erms/internal/workload"
)

// The Appendix A oracles the Theorem 1 tests check the solver against.

// Symmetric reports whether the Appendix A condition
// SLA1 − bU − bP = SLA2 − bH − bP holds (the closed forms assume it).
func (p Theorem1Params) Symmetric() bool {
	s1, s2, err := p.slacks()
	return err == nil && math.Abs(s1-s2) < 1e-9
}

// PriorityUpperBound evaluates the Appendix A upper bound on the resource
// usage of the priority-scheduling model (service 1 prioritized at P):
// Eq. 19 bounds RU^o by solving the two constraints independently. We
// compute that construction exactly — solve service 2's constraint
// optimally (it alone fixes n_p, since P absorbs the aggregate workload
// there), then size n_u to satisfy service 1 with that n_p. The result is a
// feasible point of Eq. 13-14, hence a true upper bound on PriorityUsage.
func (p Theorem1Params) PriorityUpperBound() (float64, error) {
	s1, s2, err := p.slacks()
	if err != nil {
		return 0, err
	}
	// Service 2 alone: minimize n_h·R_h + n_p·R_p subject to
	// a_h·γ2/n_h + a_p·(γ1+γ2)/n_p = s2 (Eq. 5 closed form).
	d := math.Sqrt(p.AH*p.Gamma2*p.RH) + math.Sqrt(p.AP*(p.Gamma1+p.Gamma2)*p.RP)
	usage2 := d * d / s2
	np := math.Sqrt(p.AP*(p.Gamma1+p.Gamma2)/p.RP) * d / s2
	// Service 1 with n_p fixed.
	r1 := s1 - p.AP*p.Gamma1/np
	if r1 <= 0 {
		return 0, errors.New("multiplex: independent solve infeasible for service 1")
	}
	nu := p.AU * p.Gamma1 / r1
	return usage2 + nu*p.RU, nil
}

// constModel is a single-interval test model.
type constModel struct{ a, b float64 }

func (m constModel) Knee(_, _ float64) float64                        { return 1e12 }
func (m constModel) Params(bool, float64, float64) (float64, float64) { return m.a, m.b }
func (m constModel) Predict(w, _, _ float64) float64                  { return m.a*w + m.b }

// fig5Inputs builds the §2.3 scenario: svc1 = U -> P, svc2 = H -> P, with U
// more latency-sensitive than H.
func fig5Inputs() (map[string]scaling.Input, map[string]map[string]float64, []string) {
	g1 := graph.New("svc1", "U")
	g1.AddStage(g1.Root, "P")
	g2 := graph.New("svc2", "H")
	g2.AddStage(g2.Root, "P")
	models := map[string]profiling.Model{
		"U": constModel{a: 0.006, b: 2},
		"H": constModel{a: 0.001, b: 2},
		"P": constModel{a: 0.002, b: 1},
	}
	shares := map[string]float64{"U": 0.0002, "H": 0.0002, "P": 0.0002}
	inputs := map[string]scaling.Input{
		"svc1": {Graph: g1, SLA: workload.P95SLA("svc1", 300), Models: models, Shares: shares},
		"svc2": {Graph: g2, SLA: workload.P95SLA("svc2", 300), Models: models, Shares: shares},
	}
	loads := map[string]map[string]float64{
		"svc1": {"U": 40000, "P": 40000},
		"svc2": {"H": 40000, "P": 40000},
	}
	return inputs, loads, []string{"P"}
}

// at is ms's position in a.Microservices, which indexes its entries in the
// allocation's decision slices; -1 if the service has no such microservice.
func at(a *scaling.Allocation, ms string) int { return slices.Index(a.Microservices, ms) }

func TestAssignPrioritiesByTarget(t *testing.T) {
	initial := map[string]*scaling.Allocation{
		"svc1": {Targets: map[string]float64{"P": 10}},
		"svc2": {Targets: map[string]float64{"P": 50}},
		"svc3": {Targets: map[string]float64{"P": 30}},
	}
	ranks := AssignPriorities(initial, []string{"P"})
	if ranks["P"]["svc1"] != 0 || ranks["P"]["svc3"] != 1 || ranks["P"]["svc2"] != 2 {
		t.Fatalf("ranks = %+v", ranks["P"])
	}
}

func TestAssignPrioritiesSkipsUninvolved(t *testing.T) {
	initial := map[string]*scaling.Allocation{
		"svc1": {Targets: map[string]float64{"P": 10}},
		"svc2": {Targets: map[string]float64{"Q": 5}},
	}
	ranks := AssignPriorities(initial, []string{"P", "missing"})
	if _, ok := ranks["P"]["svc2"]; ok {
		t.Fatal("svc2 does not use P")
	}
	if _, ok := ranks["missing"]; ok {
		t.Fatal("unused shared microservice should have no ranks")
	}
}

func TestAssignPrioritiesDeterministicTies(t *testing.T) {
	initial := map[string]*scaling.Allocation{
		"b": {Targets: map[string]float64{"P": 10}},
		"a": {Targets: map[string]float64{"P": 10}},
	}
	ranks := AssignPriorities(initial, []string{"P"})
	if ranks["P"]["a"] != 0 || ranks["P"]["b"] != 1 {
		t.Fatalf("tie-break wrong: %+v", ranks["P"])
	}
}

func TestModifiedWorkloadsCumulative(t *testing.T) {
	ranks := map[string]map[string]int{"P": {"svc1": 0, "svc2": 1, "svc3": 2}}
	loads := map[string]map[string]float64{
		"svc1": {"P": 100, "X": 7},
		"svc2": {"P": 200},
		"svc3": {"P": 300},
	}
	got := ModifiedWorkloads(ranks, loads)
	if got["svc1"]["P"] != 100 {
		t.Fatalf("highest priority sees own load: %v", got["svc1"]["P"])
	}
	if got["svc2"]["P"] != 300 {
		t.Fatalf("rank-1 sees cumulative: %v", got["svc2"]["P"])
	}
	if got["svc3"]["P"] != 600 {
		t.Fatalf("lowest sees total: %v", got["svc3"]["P"])
	}
	if got["svc1"]["X"] != 7 {
		t.Fatal("private microservice load changed")
	}
}

// freshPlan plans one window from scratch with the production planner.
func freshPlan(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string) (*Plan, error) {
	return NewIncrementalPlanner(nil).PlanScheme(scheme, inputs, loads, shared)
}

func TestPlanSchemeOrdering(t *testing.T) {
	// The headline claim of §2.3/Theorem 1: priority <= non-sharing <= FCFS
	// in resource usage for the Fig. 5 scenario.
	inputs, loads, shared := fig5Inputs()
	prio, err := freshPlan(SchemePriority, inputs, loads, shared)
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := freshPlan(SchemeFCFS, inputs, loads, shared)
	if err != nil {
		t.Fatal(err)
	}
	non, err := freshPlan(SchemeNonShared, inputs, loads, shared)
	if err != nil {
		t.Fatal(err)
	}
	if !(prio.ResourceUsage <= non.ResourceUsage+1e-9) {
		t.Fatalf("priority (%v) should not exceed non-sharing (%v)", prio.ResourceUsage, non.ResourceUsage)
	}
	if !(non.ResourceUsage <= fcfs.ResourceUsage+1e-9) {
		t.Fatalf("non-sharing (%v) should not exceed FCFS (%v)", non.ResourceUsage, fcfs.ResourceUsage)
	}
	// Erms gives svc1 (latency-sensitive U) priority at P.
	if prio.Ranks["P"]["svc1"] != 0 || prio.Ranks["P"]["svc2"] != 1 {
		t.Fatalf("ranks = %+v", prio.Ranks["P"])
	}
}

func TestPlanSchemeContainersMerged(t *testing.T) {
	inputs, loads, shared := fig5Inputs()
	prio, err := freshPlan(SchemePriority, inputs, loads, shared)
	if err != nil {
		t.Fatal(err)
	}
	// P deploys the max across services; U and H belong to one service each.
	maxP := 0
	for _, alloc := range prio.PerService {
		if n := alloc.Containers[at(alloc, "P")]; n > maxP {
			maxP = n
		}
	}
	if prio.Containers["P"] != maxP {
		t.Fatalf("P containers = %d, want max %d", prio.Containers["P"], maxP)
	}
	non, _ := freshPlan(SchemeNonShared, inputs, loads, shared)
	sumP := 0
	for _, alloc := range non.PerService {
		sumP += alloc.Containers[at(alloc, "P")]
	}
	if non.Containers["P"] != sumP {
		t.Fatalf("non-shared P containers = %d, want sum %d", non.Containers["P"], sumP)
	}
	if prio.TotalContainers() <= 0 || prio.TotalContainers() > non.TotalContainers() {
		t.Fatalf("total containers: prio %d vs non %d", prio.TotalContainers(), non.TotalContainers())
	}
}

func TestPlanSchemeErrors(t *testing.T) {
	if _, err := freshPlan(SchemePriority, nil, nil, nil); err == nil {
		t.Fatal("empty inputs accepted")
	}
	inputs, _, shared := fig5Inputs()
	if _, err := freshPlan(SchemePriority, inputs, map[string]map[string]float64{}, shared); err == nil {
		t.Fatal("missing loads accepted")
	}
	_, loads, _ := fig5Inputs()
	if _, err := freshPlan(Scheme(42), inputs, loads, shared); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared, Scheme(9)} {
		if s.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
}

func theoremParams(r *stats.RNG) Theorem1Params {
	p := Theorem1Params{
		AU: 0.002 + 0.01*r.Float64(), BU: 1 + r.Float64(), RU: 0.0001 + 0.0004*r.Float64(),
		AH: 0.0005 + 0.002*r.Float64(), BH: 1 + r.Float64(), RH: 0.0001 + 0.0004*r.Float64(),
		AP: 0.001 + 0.004*r.Float64(), BP: 0.5 + r.Float64(), RP: 0.0001 + 0.0004*r.Float64(),
		Gamma1: 1000 + 50000*r.Float64(), Gamma2: 1000 + 50000*r.Float64(),
	}
	slack := 20 + 200*r.Float64()
	// Enforce the Appendix A symmetric condition.
	p.SLA1 = slack + p.BU + p.BP
	p.SLA2 = slack + p.BH + p.BP
	return p
}

func TestTheorem1Ordering(t *testing.T) {
	// RU^o <= RU^n <= RU^s across random symmetric scenarios.
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 11)
		p := theoremParams(r)
		if !p.Symmetric() {
			return false
		}
		s, err := p.SharingFCFS()
		if err != nil {
			return false
		}
		n, err := p.NonSharing()
		if err != nil {
			return false
		}
		o, err := p.PriorityUsage()
		if err != nil {
			return false
		}
		return o <= n+1e-6 && n <= s+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1EqualityCondition(t *testing.T) {
	// RU^n = RU^s iff a_u·R_u = a_h·R_h (Cauchy-Schwarz equality).
	p := Theorem1Params{
		AU: 0.002, BU: 1, RU: 0.0002,
		AH: 0.002, BH: 1, RH: 0.0002,
		AP: 0.003, BP: 1, RP: 0.0002,
		Gamma1: 10000, Gamma2: 10000,
		SLA1: 100, SLA2: 100,
	}
	s, _ := p.SharingFCFS()
	n, _ := p.NonSharing()
	if math.Abs(s-n)/s > 1e-9 {
		t.Fatalf("equality case: sharing %v vs non-sharing %v", s, n)
	}
}

func TestTheorem1UpperBoundHolds(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 31)
		p := theoremParams(r)
		o, err := p.PriorityUsage()
		if err != nil {
			return false
		}
		ub, err := p.PriorityUpperBound()
		if err != nil {
			return false
		}
		return o <= ub*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1Infeasible(t *testing.T) {
	p := Theorem1Params{BU: 10, BP: 10, SLA1: 5, SLA2: 100, BH: 1}
	if _, err := p.SharingFCFS(); err == nil {
		t.Fatal("infeasible scenario accepted")
	}
	if _, err := p.PriorityUsage(); err == nil {
		t.Fatal("infeasible scenario accepted")
	}
}

func TestFig5QualitativeResult(t *testing.T) {
	// The §2.3 numbers: non-sharing beats FCFS sharing by ~15%, priority
	// beats non-sharing by ~20%. Exact magnitudes depend on parameters; the
	// ordering and "meaningful gap" are the reproduction target.
	p := Theorem1Params{
		AU: 0.008, BU: 2, RU: 0.0002, // U: highly sensitive
		AH: 0.001, BH: 2, RH: 0.0002, // H: insensitive
		AP: 0.002, BP: 1, RP: 0.0002,
		Gamma1: 40000, Gamma2: 40000, // 40k req/min each (§2.3)
		SLA1: 300, SLA2: 301, // SLA 300ms; +1 keeps slacks symmetric
	}
	s, _ := p.SharingFCFS()
	n, _ := p.NonSharing()
	o, _ := p.PriorityUsage()
	if !(o < n && n < s) {
		t.Fatalf("ordering violated: o=%v n=%v s=%v", o, n, s)
	}
	if (s-o)/s < 0.1 {
		t.Fatalf("priority saves only %.1f%% vs FCFS; expected a substantial gap", 100*(s-o)/s)
	}
}

// randomSharedInputs builds a random multi-service topology where every
// service's chain ends at a shared microservice P.
func randomSharedInputs(seed uint64) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	r := stats.NewRNG(seed)
	nSvc := 2 + r.Intn(3)
	models := map[string]profiling.Model{
		"P": constModel{a: 0.001 + 0.004*r.Float64(), b: 0.5 + r.Float64()},
	}
	shares := map[string]float64{"P": 0.0002}
	inputs := map[string]scaling.Input{}
	loads := map[string]map[string]float64{}
	for s := 0; s < nSvc; s++ {
		svc := "svc" + string(rune('a'+s))
		own := "own-" + svc
		g := graph.New(svc, own)
		g.AddStage(g.Root, "P")
		models[own] = constModel{a: 0.0005 + 0.01*r.Float64(), b: 0.5 + 2*r.Float64()}
		shares[own] = 0.0002
		slack := 20 + 150*r.Float64()
		_, bOwn := models[own].Params(true, 0, 0)
		_, bP := models["P"].Params(true, 0, 0)
		inputs[svc] = scaling.Input{
			Graph:  g,
			SLA:    workload.P95SLA(svc, slack+bOwn+bP),
			Models: models,
			Shares: shares,
		}
		rate := 2000 + 40000*r.Float64()
		loads[svc] = map[string]float64{own: rate, "P": rate}
	}
	return inputs, loads, []string{"P"}
}

// TestPrioritySavesOverFCFSOnRandomTopologies checks the §4.3 claim broadly:
// across random shared topologies, priority scheduling essentially never
// costs more resources than FCFS sharing, and saves on average.
func TestPrioritySavesOverFCFSOnRandomTopologies(t *testing.T) {
	worse := 0
	var savings float64
	const n = 150
	for seed := 0; seed < n; seed++ {
		inputs, loads, shared := randomSharedInputs(uint64(seed) + 1)
		prio, err := freshPlan(SchemePriority, inputs, loads, shared)
		if err != nil {
			t.Fatal(err)
		}
		fcfs, err := freshPlan(SchemeFCFS, inputs, loads, shared)
		if err != nil {
			t.Fatal(err)
		}
		if prio.ResourceUsage > fcfs.ResourceUsage*1.0001 {
			worse++
		}
		savings += 1 - prio.ResourceUsage/fcfs.ResourceUsage
	}
	if worse > n/20 {
		t.Fatalf("priority cost more than FCFS in %d/%d random topologies", worse, n)
	}
	if savings/n <= 0 {
		t.Fatalf("mean saving = %v, want positive", savings/n)
	}
}
