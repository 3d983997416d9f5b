// Package erms is a from-scratch Go implementation of Erms — Efficient
// Resource Management for Shared Microservices with SLA Guarantees
// (ASPLOS 2023) — together with every substrate it runs on: a
// discrete-event microservice cluster simulator, a mini container
// orchestrator, a tracing stack, piece-wise-linear latency profiling, the
// closed-form latency-target optimizer with graph merging (Algorithm 1),
// priority scheduling at shared microservices, interference-aware
// provisioning, and the GrandSLAm/Rhythm/Firm baselines the paper compares
// against.
//
// The top-level API mirrors how an operator would use Erms:
//
//	app := erms.SocialNetwork()
//	sys, _ := erms.NewSystem(app, erms.WithHosts(20))
//	sys.UseAnalyticModels()
//	plan, _ := sys.Plan(map[string]float64{
//	    "compose-post": 30_000, "home-timeline": 30_000, "user-timeline": 30_000,
//	})
//	res, _ := sys.Evaluate(plan, rates, 3 /*min*/, 0.5 /*warmup*/, 1 /*seed*/)
//	fmt.Println(plan.TotalContainers(), res.TailLatency)
//
// Everything is deterministic for fixed seeds and uses only the standard
// library.
package erms

import (
	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/provision"
	"erms/internal/workload"
)

// App describes a benchmark application: per-service dependency graphs,
// per-microservice service-time profiles and container specs, and default
// SLAs.
type App = apps.App

// SocialNetwork builds the DeathStarBench-equivalent Social Network
// application: 36 microservices, 3 services, 3 shared microservices.
func SocialNetwork() *App { return apps.SocialNetwork() }

// HotelReservation builds the Hotel Reservation application: 15
// microservices, 4 services, 3 shared microservices.
func HotelReservation() *App { return apps.HotelReservation() }

// AlibabaConfig parameterizes the synthetic production-trace generator.
type AlibabaConfig = apps.AlibabaConfig

// Alibaba generates a production-shaped application (Taobao scale by
// default: 500 services × ~50 microservices, 300+ shared).
func Alibaba(cfg AlibabaConfig) *App { return apps.Alibaba(cfg) }

// Scheme selects how shared microservices are handled.
type Scheme = multiplex.Scheme

// Shared-microservice schemes (§2.3): Erms' priority scheduling, plain FCFS
// sharing, and per-service container partitioning.
const (
	SchemePriority  = multiplex.SchemePriority
	SchemeFCFS      = multiplex.SchemeFCFS
	SchemeNonShared = multiplex.SchemeNonShared
)

// Plan is a multi-service allocation: latency targets, container counts,
// and priority ranks at shared microservices.
type Plan = multiplex.Plan

// EvalResult is the outcome of simulating a deployed plan.
type EvalResult = core.EvalResult

// System is an Erms deployment: one application managed on one simulated
// cluster.
type System struct {
	ctrl *core.Controller
}

// Option configures NewSystem.
type Option func(*config)

type config struct {
	hosts  int
	scheme Scheme
}

// WithHosts sets the cluster size (default 20, the paper's testbed).
func WithHosts(n int) Option { return func(c *config) { c.hosts = n } }

// WithScheme selects the shared-microservice scheme (default priority).
func WithScheme(s Scheme) Option { return func(c *config) { c.scheme = s } }

// NewSystem creates an Erms system managing the application on a fresh
// simulated cluster of paper hosts (32 cores / 64 GB) with interference-aware
// provisioning over four POP groups and the default probabilistic-priority
// δ of 0.05.
func NewSystem(app *App, opts ...Option) (*System, error) {
	cfg := config{hosts: 20, scheme: SchemePriority}
	for _, o := range opts {
		o(&cfg)
	}
	cl := cluster.New(cfg.hosts, cluster.PaperHost)
	orch := kube.New(cl, nil)
	ctrl, err := core.New(app, orch,
		core.WithScheme(cfg.scheme),
		core.WithScheduler(&provision.InterferenceAware{Groups: 4}))
	if err != nil {
		return nil, err
	}
	return &System{ctrl: ctrl}, nil
}

// UseAnalyticModels installs first-principles latency models derived from
// the application's service profiles — the fast path. (A workload spec with
// run.models: profiled fits them by offline profiling sweeps instead.)
func (s *System) UseAnalyticModels() { s.ctrl.UseAnalyticModels() }

// Plan runs Online Scaling (§5.3) for the given per-service request rates
// (requests/minute): graph merge, latency target computation, priority
// assignment at shared microservices, and recomputation under the modified
// workloads.
func (s *System) Plan(rates map[string]float64) (*Plan, error) { return s.ctrl.Plan(rates) }

// Evaluate applies a plan and drives the deployment with real (simulated)
// traffic for durationMin minutes, returning measured tail latencies and
// SLA violation rates per service.
func (s *System) Evaluate(plan *Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64) (*EvalResult, error) {
	return s.ctrl.EvaluatePlan(plan, rates, durationMin, warmupMin, seed)
}

// SetBackground injects colocated batch-job interference on one host (the
// iBench substitute). Host IDs run 0..hosts-1.
func (s *System) SetBackground(hostID int, cpuUtil, memUtil float64) error {
	return s.ctrl.Orch.Cluster().SetBackground(hostID, workload.Interference{CPU: cpuUtil, Mem: memUtil})
}
