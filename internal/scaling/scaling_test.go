package scaling

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/stats"
	"erms/internal/workload"
)

// SequentialClosedForm evaluates Eq. 5 directly for a chain of sequential
// microservices with parameters (a_i, b_i, R_i, γ_i): it returns the optimal
// latency targets and fractional container counts — the oracle the chain
// tests hold the planner to.
func SequentialClosedForm(a, b, r, gamma []float64, sla float64) (targets, containers []float64, err error) {
	k := len(a)
	if k == 0 || len(b) != k || len(r) != k || len(gamma) != k {
		return nil, nil, errors.New("scaling: closed form needs equal-length parameter slices")
	}
	var bSum, root float64
	roots := make([]float64, k)
	for i := 0; i < k; i++ {
		if a[i] <= 0 || r[i] <= 0 || gamma[i] <= 0 {
			return nil, nil, fmt.Errorf("scaling: non-positive parameter at index %d", i)
		}
		bSum += b[i]
		roots[i] = math.Sqrt(a[i] * gamma[i] * r[i])
		root += roots[i]
	}
	slack := sla - bSum
	if slack <= 0 {
		return nil, nil, ErrInfeasible
	}
	targets = make([]float64, k)
	containers = make([]float64, k)
	for i := 0; i < k; i++ {
		targets[i] = roots[i]/root*slack + b[i]
		containers[i] = a[i] * gamma[i] / (targets[i] - b[i])
	}
	return targets, containers, nil
}

// ResourceUsageOf computes Σ n_i·R_i for a hypothetical target assignment —
// the Eq. 2 objective under the linear model — or ErrInfeasible if any
// target is at or below its intercept.
func ResourceUsageOf(in Input, targets map[string]float64) (float64, error) {
	var total float64
	for _, ms := range in.Graph.Microservices() {
		m := in.Models[ms]
		// Use the interval consistent with the target: high if the implied
		// per-container workload exceeds the knee.
		aHi, bHi := m.Params(true, in.CPUUtil, in.MemUtil)
		knee := m.Knee(in.CPUUtil, in.MemUtil)
		t, ok := targets[ms]
		if !ok {
			return 0, fmt.Errorf("scaling: no target for %s", ms)
		}
		kneeLatency := aHi*knee + bHi
		a, b := aHi, bHi
		if t < kneeLatency {
			a, b = m.Params(false, in.CPUUtil, in.MemUtil)
		}
		if t <= b {
			return 0, ErrInfeasible
		}
		n := a * in.Workloads[ms] / (t - b)
		total += n * in.Shares[ms]
	}
	return total, nil
}

// constModel is a deterministic two-interval model for tests.
type constModel struct {
	aLo, bLo float64
	aHi, bHi float64
	knee     float64
}

func (m constModel) Knee(_, _ float64) float64 { return m.knee }
func (m constModel) Params(high bool, _, _ float64) (float64, float64) {
	if high {
		return m.aHi, m.bHi
	}
	return m.aLo, m.bLo
}
func (m constModel) Predict(w, cpu, mem float64) float64 {
	a, b := m.Params(w > m.knee, cpu, mem)
	return a*w + b
}

// mkModel builds a single-interval model (both intervals identical) so the
// closed-form comparisons are exact.
func mkModel(a, b float64) profiling.Model {
	return constModel{aLo: a, bLo: b, aHi: a, bHi: b, knee: 1e12}
}

func chainInput(t *testing.T, n int, sla float64) Input {
	t.Helper()
	g := graph.New("svc", msName(0))
	parent := g.Root
	for i := 1; i < n; i++ {
		parent = g.AddStage(parent, msName(i))[0]
	}
	in := Input{
		Graph:     g,
		SLA:       workload.P95SLA("svc", sla),
		Models:    map[string]profiling.Model{},
		Shares:    map[string]float64{},
		Workloads: map[string]float64{},
	}
	r := stats.NewRNG(uint64(n))
	for i := 0; i < n; i++ {
		ms := msName(i)
		in.Models[ms] = mkModel(0.001+0.01*r.Float64(), 1+2*r.Float64())
		in.Shares[ms] = 0.0001 + 0.0002*r.Float64()
		in.Workloads[ms] = 1000 + 9000*r.Float64()
	}
	return in
}

func msName(i int) string {
	return "ms" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestPlanMatchesClosedFormOnChain(t *testing.T) {
	in := chainInput(t, 5, 200)
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, r, gamma []float64
	var order []string
	for i := 0; i < 5; i++ {
		ms := msName(i)
		order = append(order, ms)
		ai, bi := in.Models[ms].Params(true, 0, 0)
		a = append(a, ai)
		b = append(b, bi)
		r = append(r, in.Shares[ms])
		gamma = append(gamma, in.Workloads[ms])
	}
	targets, containers, err := SequentialClosedForm(a, b, r, gamma, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range order {
		if math.Abs(alloc.Targets[ms]-targets[i]) > 1e-6 {
			t.Fatalf("%s target %v != closed form %v", ms, alloc.Targets[ms], targets[i])
		}
		if math.Abs(alloc.ContainersRaw[ms]-containers[i]) > 1e-6 {
			t.Fatalf("%s containers %v != closed form %v", ms, alloc.ContainersRaw[ms], containers[i])
		}
	}
	// Targets along the chain sum to the SLA.
	var sum float64
	for _, ms := range order {
		sum += alloc.Targets[ms]
	}
	if math.Abs(sum-200) > 1e-6 {
		t.Fatalf("targets sum to %v, want 200", sum)
	}
}

func TestClosedFormIsOptimal(t *testing.T) {
	// KKT optimality: any feasible perturbation of the latency targets that
	// keeps the chain summing to the SLA must not use fewer resources.
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 7)
		k := 2 + r.Intn(5)
		a := make([]float64, k)
		b := make([]float64, k)
		rr := make([]float64, k)
		gamma := make([]float64, k)
		var bSum float64
		for i := 0; i < k; i++ {
			a[i] = 0.001 + 0.01*r.Float64()
			b[i] = 1 + 3*r.Float64()
			rr[i] = 0.0001 + 0.0005*r.Float64()
			gamma[i] = 500 + 5000*r.Float64()
			bSum += b[i]
		}
		sla := bSum + 20 + 100*r.Float64()
		targets, containers, err := SequentialClosedForm(a, b, rr, gamma, sla)
		if err != nil {
			return false
		}
		var optimal float64
		for i := 0; i < k; i++ {
			optimal += containers[i] * rr[i]
		}
		// Perturb: move slack between two random components.
		for trial := 0; trial < 20; trial++ {
			i, j := r.Intn(k), r.Intn(k)
			if i == j {
				continue
			}
			eps := (targets[i] - b[i]) * 0.3 * r.Float64()
			ti, tj := targets[i]-eps, targets[j]+eps
			if ti <= b[i] {
				continue
			}
			var usage float64
			for m := 0; m < k; m++ {
				tm := targets[m]
				if m == i {
					tm = ti
				}
				if m == j {
					tm = tj
				}
				usage += a[m] * gamma[m] / (tm - b[m]) * rr[m]
			}
			if usage < optimal-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFormulasMatchPaper(t *testing.T) {
	// Eq. 7-9 for two sequential components with equal workload γ=1.
	au, bu, ru := 0.004, 2.0, 0.0002
	ac, bc, rc := 0.001, 1.0, 0.0004
	u := leafNode("u", nil, au, bu, 1, ru)
	c := leafNode("c", nil, ac, bc, 1, rc)
	m := seqMerge([]*mergeNode{u, c})
	wantA := (math.Sqrt(au*ru) + math.Sqrt(ac*rc)) * (math.Sqrt(au/ru) + math.Sqrt(ac/rc))
	wantB := bu + bc
	wantR := (math.Sqrt(au*ru) + math.Sqrt(ac*rc)) / (math.Sqrt(au/ru) + math.Sqrt(ac/rc))
	if math.Abs(m.A-wantA) > 1e-12 || math.Abs(m.B-wantB) > 1e-12 || math.Abs(m.R-wantR) > 1e-12 {
		t.Fatalf("seq merge = (%v,%v,%v), want (%v,%v,%v)", m.A, m.B, m.R, wantA, wantB, wantR)
	}
	// Eq. 11 for parallel: a** = a1+a2, b** = max.
	p := parMerge([]*mergeNode{u, c})
	if math.Abs(p.A-(au+ac)) > 1e-12 {
		t.Fatalf("par merge A = %v, want %v", p.A, au+ac)
	}
	if p.B != 2.0 {
		t.Fatalf("par merge B = %v, want max(2,1)", p.B)
	}
	// Sequential merge is associative in (p, q).
	d := leafNode("d", nil, 0.002, 0.5, 1, 0.0003)
	left := seqMerge([]*mergeNode{seqMerge([]*mergeNode{u, c}), d})
	flat := seqMerge([]*mergeNode{u, c, d})
	if math.Abs(left.A-flat.A) > 1e-12 || math.Abs(left.R-flat.R) > 1e-12 {
		t.Fatal("sequential merge not associative")
	}
}

// fig7Input builds the Fig. 7 graph (T calls Url,U in parallel then C).
func fig7Input() Input {
	g := graph.New("svc", "T")
	g.AddStage(g.Root, "Url", "U")
	g.AddStage(g.Root, "C")
	return Input{
		Graph: g,
		SLA:   workload.P95SLA("svc", 100),
		Models: map[string]profiling.Model{
			"T":   mkModel(0.001, 0.5),
			"Url": mkModel(0.004, 2),
			"U":   mkModel(0.002, 2),
			"C":   mkModel(0.003, 1),
		},
		Shares:    map[string]float64{"T": 0.0002, "Url": 0.0002, "U": 0.0002, "C": 0.0002},
		Workloads: map[string]float64{"T": 5000, "Url": 5000, "U": 5000, "C": 5000},
	}
}

func TestPlanFig7ParallelTargetsEqual(t *testing.T) {
	in := fig7Input()
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// Url and U have equal intercepts, so their (virtual-node) targets are
	// identical (Eq. 10).
	if math.Abs(alloc.Targets["Url"]-alloc.Targets["U"]) > 1e-9 {
		t.Fatalf("parallel targets differ: Url=%v U=%v", alloc.Targets["Url"], alloc.Targets["U"])
	}
	// All targets positive and below the SLA.
	for ms, target := range alloc.Targets {
		if target <= 0 || target >= 100 {
			t.Fatalf("%s target = %v", ms, target)
		}
	}
	// Modeled end-to-end latency with the fractional allocation equals the
	// SLA exactly (the optimum binds the constraint); rounding up can only
	// help.
	e2e, err := EndToEndModelLatency(in, alloc.Containers)
	if err != nil {
		t.Fatal(err)
	}
	if e2e > 100+1e-6 {
		t.Fatalf("end-to-end model latency %v exceeds SLA", e2e)
	}
}

func TestPlanBindsSLAExactly(t *testing.T) {
	in := fig7Input()
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate with the *raw* containers: T + max(Url, U) + C = SLA.
	lat := func(ms string) float64 {
		a, b := in.Models[ms].Params(alloc.UsedHigh[ms], 0, 0)
		return a*in.Workloads[ms]/alloc.ContainersRaw[ms] + b
	}
	e2e := lat("T") + math.Max(lat("Url"), lat("U")) + lat("C")
	if math.Abs(e2e-100) > 0.5 {
		t.Fatalf("raw end-to-end = %v, want ~100 (constraint binds)", e2e)
	}
}

func TestHigherWorkloadRaisesOwnTarget(t *testing.T) {
	// §4.2: when a microservice's workload grows, it receives a higher
	// latency target and the others receive lower ones.
	base := chainInput(t, 3, 150)
	a1, err := Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	bumped := base
	bumped.Workloads = map[string]float64{}
	for ms, w := range base.Workloads {
		bumped.Workloads[ms] = w
	}
	bumped.Workloads[msName(1)] *= 16
	a2, err := Plan(bumped)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Targets[msName(1)] <= a1.Targets[msName(1)] {
		t.Fatalf("bumped microservice target fell: %v -> %v", a1.Targets[msName(1)], a2.Targets[msName(1)])
	}
	for _, other := range []string{msName(0), msName(2)} {
		if a2.Targets[other] >= a1.Targets[other] {
			t.Fatalf("%s target should drop: %v -> %v", other, a1.Targets[other], a2.Targets[other])
		}
	}
}

// twoIntervalInput is a two-microservice chain whose plan flips A to the low
// interval and keeps B on the high one.
func twoIntervalInput() Input {
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B")
	return Input{
		Graph: g,
		SLA:   workload.P95SLA("svc", 30),
		Models: map[string]profiling.Model{
			// A's high interval only reaches down to 20ms at the knee
			// (a=0.01, knee=2000, b=5 -> knee latency 25): a 15ms-ish target
			// forces the low interval.
			"A": constModel{aLo: 0.001, bLo: 2, aHi: 0.01, bHi: 5, knee: 2000},
			// B's knee latency is ~1.2ms, far below any target it can get,
			// so B legitimately stays in the high-workload interval.
			"B": constModel{aLo: 0.001, bLo: 1, aHi: 0.002, bHi: 1, knee: 100},
		},
		Shares:    map[string]float64{"A": 0.0002, "B": 0.0002},
		Workloads: map[string]float64{"A": 3000, "B": 3000},
	}
}

func TestTwoIntervalRecomputation(t *testing.T) {
	// A microservice whose high-interval knee latency exceeds its allocated
	// target must be replanned with the low interval (§5.3.1).
	alloc, err := Plan(twoIntervalInput())
	if err != nil {
		t.Fatal(err)
	}
	if alloc.UsedHigh["A"] {
		t.Fatalf("A should use the low interval (target %v)", alloc.Targets["A"])
	}
	if !alloc.UsedHigh["B"] {
		t.Fatal("B should stay on the high interval")
	}
}

func TestPlanInfeasible(t *testing.T) {
	in := chainInput(t, 4, 2) // SLA below the sum of intercepts
	_, err := Plan(in)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPlanValidation(t *testing.T) {
	in := chainInput(t, 3, 100)
	delete(in.Models, msName(1))
	if _, err := Plan(in); err == nil {
		t.Fatal("missing model accepted")
	}
	in2 := chainInput(t, 3, 100)
	in2.Workloads[msName(0)] = 0
	if _, err := Plan(in2); err == nil {
		t.Fatal("zero workload accepted")
	}
	in3 := chainInput(t, 3, 100)
	in3.Shares[msName(2)] = 0
	if _, err := Plan(in3); err == nil {
		t.Fatal("zero share accepted")
	}
}

func TestDuplicateMicroserviceTakesTightest(t *testing.T) {
	// Diamond: A calls B twice (two positions).
	g := graph.New("svc", "A")
	g.AddSequential(g.Root, "B", "B")
	in := Input{
		Graph:     g,
		SLA:       workload.P95SLA("svc", 100),
		Models:    map[string]profiling.Model{"A": mkModel(0.001, 1), "B": mkModel(0.002, 2)},
		Shares:    map[string]float64{"A": 0.0002, "B": 0.0002},
		Workloads: map[string]float64{"A": 1000, "B": 2000},
	}
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Containers["B"] < 1 || alloc.Targets["B"] <= 0 {
		t.Fatalf("duplicate handling broken: %+v", alloc)
	}
}

func TestResourceUsageOfMatchesPlan(t *testing.T) {
	in := fig7Input()
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	usage, err := ResourceUsageOf(in, alloc.Targets)
	if err != nil {
		t.Fatal(err)
	}
	// ResourceUsageOf recomputes n from targets; for duplicate-free graphs
	// it matches the plan's raw usage.
	if math.Abs(usage-alloc.ResourceUsage)/alloc.ResourceUsage > 0.01 {
		t.Fatalf("usage %v vs plan %v", usage, alloc.ResourceUsage)
	}
}

func TestPlanScalability(t *testing.T) {
	// §6.5.2: latency target computation on 1000+-node graphs is fast.
	r := stats.NewRNG(42)
	g := graph.New("big", "root")
	in := Input{
		Graph:     g,
		SLA:       workload.P95SLA("big", 5000),
		Models:    map[string]profiling.Model{"root": mkModel(0.001, 0.2)},
		Shares:    map[string]float64{"root": 0.0002},
		Workloads: map[string]float64{"root": 1000},
	}
	open := []*graph.Node{g.Root}
	for i := 0; g.Len() < 1200; i++ {
		p := open[r.Intn(len(open))]
		width := 1 + r.Intn(3)
		names := make([]string, width)
		for k := range names {
			names[k] = "n" + itoa(g.Len()+k)
		}
		st := g.AddStage(p, names...)
		open = append(open, st...)
		for _, ms := range names {
			in.Models[ms] = mkModel(0.0005+0.002*r.Float64(), 0.1+0.4*r.Float64())
			in.Shares[ms] = 0.0002
			in.Workloads[ms] = 1000
		}
	}
	alloc, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Targets) < 1000 {
		t.Fatalf("targets = %d", len(alloc.Targets))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestSequentialClosedFormErrors(t *testing.T) {
	if _, _, err := SequentialClosedForm(nil, nil, nil, nil, 100); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := SequentialClosedForm([]float64{1}, []float64{200}, []float64{1}, []float64{1}, 100); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
	if _, _, err := SequentialClosedForm([]float64{0}, []float64{1}, []float64{1}, []float64{1}, 100); err == nil {
		t.Fatal("zero slope accepted")
	}
}

func TestSortedTargets(t *testing.T) {
	in := fig7Input()
	alloc, _ := Plan(in)
	order := SortedTargets(alloc)
	if len(order) != 4 || order[0] != "C" {
		t.Fatalf("order = %v", order)
	}
}
