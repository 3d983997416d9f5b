// Package scaling implements Erms' Latency Target Computation (§4, §5.3):
// the closed-form optimal latency split for sequential microservices
// (Eq. 5), the graph-merge procedure that reduces an arbitrary dependency
// graph to a sequential chain by inventing virtual microservices (Eq. 6-12,
// Algorithm 1), the reverse unwind that assigns every real microservice its
// target, and the two-interval recomputation pass of §5.3.1.
//
// Throughout, each microservice i is modeled as L_i = a_i·(γ_i/n_i) + b_i
// (tail latency versus per-container workload). The package works with
// A_i = a_i·γ_i so that L_i = A_i/n_i + b_i, which lets microservices with
// different workloads merge cleanly: the paper's Eq. 7-9 are the special
// case of equal γ.
package scaling

import (
	"errors"
	"fmt"
	"math"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// ErrInfeasible reports that the SLA is below the sum of intercepts on some
// path — no finite allocation can meet it.
var ErrInfeasible = errors.New("scaling: SLA infeasible (threshold below minimum attainable latency)")

// DomainCapRatio bounds how far past the knee the high-interval line may be
// used: per-container workload never exceeds DomainCapRatio·σ, keeping
// allocations inside the profiled (stable) operating range. At the analytic
// defaults (knee at 75% utilization) this caps containers at ~82% of
// saturation, where the simulator's measured tail latency still tracks the
// linearized model (~2.5× the idle tail); beyond that real queues detach
// from any linear extrapolation.
const DomainCapRatio = 1.1

// Input is everything Latency Target Computation needs for one service.
type Input struct {
	// Graph is the service's dependency graph.
	Graph *graph.Graph
	// SLA bounds the end-to-end tail latency.
	SLA workload.SLA
	// Models provides the fitted or analytic latency model per microservice.
	Models map[string]profiling.Model
	// Shares gives R_i, the dominant-resource share of one container of each
	// microservice (Eq. 3).
	Shares map[string]float64
	// Workloads gives γ_i, the total calls/minute each microservice must
	// absorb under this service's model. For shared microservices under
	// priority scheduling this is the modified cumulative workload of
	// §5.3.2; under FCFS it is the full aggregate; for private microservices
	// it is the service's own call rate.
	Workloads map[string]float64
	// CPUUtil and MemUtil are the cluster-average utilizations fed into the
	// profiling model (§5.3.1).
	CPUUtil float64
	MemUtil float64
}

// validate checks the bindings a template captures: the graph, the SLA, and
// a model and a resource share for every microservice, in sorted order.
// Workloads are per-window inputs; Solve checks them.
func (in *Input) validate() error {
	if in.Graph == nil {
		return errors.New("scaling: nil graph")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.SLA.Validate(); err != nil {
		return err
	}
	for _, ms := range in.Graph.Microservices() {
		if _, ok := in.Models[ms]; !ok {
			return fmt.Errorf("scaling: no model for microservice %s", ms)
		}
		if in.Shares[ms] <= 0 {
			return fmt.Errorf("scaling: no resource share for microservice %s", ms)
		}
	}
	return nil
}

// Allocation is the result of Latency Target Computation for one service.
type Allocation struct {
	Service string
	// Targets is the latency target (ms) per microservice.
	Targets map[string]float64
	// ContainersRaw is the exact (fractional) container requirement.
	ContainersRaw map[string]float64
	// Containers is ContainersRaw rounded up (§7: Erms rounds up).
	Containers map[string]int
	// UsedHigh records which interval of the piece-wise model was used.
	UsedHigh map[string]bool
	// ResourceUsage is Σ n_i·R_i over microservices (raw n), the objective
	// of Eq. 2.
	ResourceUsage float64
}

// TotalContainers sums the rounded container counts.
func (a *Allocation) TotalContainers() int {
	t := 0
	for _, n := range a.Containers {
		t += n
	}
	return t
}

// Plan computes latency targets and container counts for one service,
// running Latency Target Computation at most twice per §5.3.1: first with
// the high-workload interval for every microservice, then recomputing with
// the low interval for microservices whose allocated target falls below the
// latency at their cut-off point. It compiles a template for the one call;
// a caller that plans the same service window after window keeps the
// template instead (TemplateCache).
func Plan(in Input) (*Allocation, error) {
	t, err := Compile(in)
	if err != nil {
		return nil, err
	}
	return t.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
}

// containerCount rounds a raw requirement up to whole containers (§7: Erms
// rounds up; at least one). A requirement that is not finite or exceeds
// math.MaxInt32 is an error naming the microservice: the float-to-int
// conversion is undefined there (it used to come back negative and be
// clamped to one container), and no cluster deploys two billion replicas.
func containerCount(ms string, raw float64) (int, error) {
	if math.IsNaN(raw) || math.IsInf(raw, 0) || raw > math.MaxInt32 {
		return 0, fmt.Errorf("scaling: microservice %s needs %v containers, which cannot be planned", ms, raw)
	}
	n := int(math.Ceil(raw - 1e-9))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// EndToEndModelLatency evaluates the modeled end-to-end tail latency of a
// service for a given container assignment, composing per-microservice
// model latencies along the dependency graph (sequential stages add,
// parallel calls take the max).
func EndToEndModelLatency(in Input, containers map[string]int) (float64, error) {
	for _, ms := range in.Graph.Microservices() {
		if containers[ms] < 1 {
			return 0, fmt.Errorf("scaling: no containers for %s", ms)
		}
	}
	lat := func(n *graph.Node) float64 {
		ms := n.Microservice
		m := in.Models[ms]
		perContainer := in.Workloads[ms] / float64(containers[ms])
		return m.Predict(perContainer, in.CPUUtil, in.MemUtil)
	}
	return in.Graph.EndToEnd(lat), nil
}

// SortedTargets renders targets in a deterministic order for reports.
func SortedTargets(a *Allocation) []string {
	return sortutil.Keys(a.Targets)
}
