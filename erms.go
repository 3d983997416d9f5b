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
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/sim"
	"erms/internal/workload"
)

// App describes a benchmark application: per-service dependency graphs,
// per-microservice service-time profiles and container specs, and default
// SLAs.
type App = apps.App

// SocialNetwork builds the DeathStarBench-equivalent Social Network
// application: 36 microservices, 3 services, 3 shared microservices.
func SocialNetwork() *App { return apps.SocialNetwork() }

// MediaService builds the Media Service application: 38 microservices in a
// single compose-review service.
func MediaService() *App { return apps.MediaService() }

// HotelReservation builds the Hotel Reservation application: 15
// microservices, 4 services, 3 shared microservices.
func HotelReservation() *App { return apps.HotelReservation() }

// AlibabaConfig parameterizes the synthetic production-trace generator.
type AlibabaConfig = apps.AlibabaConfig

// Alibaba generates a production-shaped application (Taobao scale by
// default: 500 services × ~50 microservices, 300+ shared).
func Alibaba(cfg AlibabaConfig) *App { return apps.Alibaba(cfg) }

// SLA is a tail-latency service-level agreement.
type SLA = workload.SLA

// P95SLA builds the common 95th-percentile SLA.
func P95SLA(service string, thresholdMs float64) SLA { return workload.P95SLA(service, thresholdMs) }

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

// EvalOpts carries per-window evaluation options: fault injection, cohort
// streams, and the simulation engine selection (exact serial, partitioned,
// or hybrid fluid/discrete — see SimExact / SimHybrid).
type EvalOpts = core.EvalOpts

// Simulation fidelity modes for EvalOpts.SimMode.
const (
	// SimExact runs the exact discrete-event engine (the default).
	SimExact = sim.SimExact
	// SimHybrid serves far-from-knee microservices from the analytic
	// M/M/c fluid model and keeps near-knee ones on discrete events.
	SimHybrid = sim.SimHybrid
)

// OfflineConfig drives empirical profiling sweeps.
type OfflineConfig = core.OfflineConfig

// System is an Erms deployment: one application managed on one simulated
// cluster.
type System struct {
	ctrl *core.Controller
}

// Option configures NewSystem.
type Option func(*config)

type config struct {
	hosts     int
	hostSpec  cluster.HostSpec
	scheme    Scheme
	delta     float64
	popGroups int
}

// WithHosts sets the cluster size (default 20, the paper's testbed).
func WithHosts(n int) Option { return func(c *config) { c.hosts = n } }

// WithHostSpec overrides the per-host capacity (default 32 cores / 64 GB).
func WithHostSpec(cores int, memGB float64) Option {
	return func(c *config) { c.hostSpec = cluster.HostSpec{Cores: cores, MemGB: memGB} }
}

// WithScheme selects the shared-microservice scheme (default priority).
func WithScheme(s Scheme) Option { return func(c *config) { c.scheme = s } }

// WithDelta sets the probabilistic-priority parameter δ (default 0.05).
func WithDelta(d float64) Option { return func(c *config) { c.delta = d } }

// WithPOPGroups sets the provisioning partition count (default 4).
func WithPOPGroups(g int) Option { return func(c *config) { c.popGroups = g } }

// NewSystem creates an Erms system managing the application on a fresh
// simulated cluster with interference-aware provisioning.
func NewSystem(app *App, opts ...Option) (*System, error) {
	cfg := config{
		hosts:     20,
		hostSpec:  cluster.PaperHost,
		scheme:    SchemePriority,
		delta:     0.05,
		popGroups: 4,
	}
	for _, o := range opts {
		o(&cfg)
	}
	cl := cluster.New(cfg.hosts, cfg.hostSpec)
	orch := kube.New(cl, nil)
	ctrl, err := core.New(app, orch,
		core.WithScheme(cfg.scheme),
		core.WithDelta(cfg.delta),
		core.WithScheduler(&provision.InterferenceAware{Groups: cfg.popGroups}))
	if err != nil {
		return nil, err
	}
	return &System{ctrl: ctrl}, nil
}

// UseAnalyticModels installs first-principles latency models derived from
// the application's service profiles — the fast path. ProfileOffline
// replaces them with empirically fitted models.
func (s *System) UseAnalyticModels() { s.ctrl.UseAnalyticModels() }

// ProfileOffline runs simulated profiling sweeps (§5.2, §6.2) and fits the
// piece-wise linear latency models from the collected traces. It returns
// the microservices that could not be fitted.
func (s *System) ProfileOffline(cfg OfflineConfig) ([]string, error) {
	return s.ctrl.ProfileOffline(cfg)
}

// Plan runs Online Scaling (§5.3) for the given per-service request rates
// (requests/minute): graph merge, latency target computation, priority
// assignment at shared microservices, and recomputation under the modified
// workloads.
func (s *System) Plan(rates map[string]float64) (*Plan, error) { return s.ctrl.Plan(rates) }

// Apply reconciles a plan onto the cluster through the orchestrator and the
// interference-aware provisioner.
func (s *System) Apply(plan *Plan) error { return s.ctrl.Apply(plan) }

// Evaluate applies a plan and drives the deployment with real (simulated)
// traffic for durationMin minutes, returning measured tail latencies and
// SLA violation rates per service.
func (s *System) Evaluate(plan *Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64) (*EvalResult, error) {
	return s.ctrl.EvaluatePlan(plan, rates, durationMin, warmupMin, seed)
}

// EvaluateWithOpts is Evaluate with explicit per-window options: fault
// injection, SLO-tiered streams, and the evaluation engine selection
// (EvalOpts.SimMode / SimPartitions route through the partitioned parallel
// simulator; the zero EvalOpts keeps the historical serial exact engine).
func (s *System) EvaluateWithOpts(plan *Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64, opts EvalOpts) (*EvalResult, error) {
	if err := s.ctrl.Apply(plan); err != nil {
		return nil, err
	}
	return s.ctrl.EvaluateDeployed(plan, rates, durationMin, warmupMin, seed, opts)
}

// SetBackground injects colocated batch-job interference on one host (the
// iBench substitute). Host IDs run 0..hosts-1.
func (s *System) SetBackground(hostID int, cpuUtil, memUtil float64) error {
	return s.ctrl.Orch.Cluster().SetBackground(hostID, workload.Interference{CPU: cpuUtil, Mem: memUtil})
}

// Explain renders the Algorithm 1 merge tree and latency-target derivation
// for one service at the given rates — why each microservice got its target.
func (s *System) Explain(service string, rates map[string]float64) (string, error) {
	return s.ctrl.Explain(service, rates)
}

// NewReconciler wraps the system in the periodic scaling loop of Fig. 6,
// with scale-down hysteresis. It inherits the system's self-observability
// recorder, if one was enabled.
func (s *System) NewReconciler() *core.Reconciler { return core.NewReconciler(s.ctrl) }

// Recorder is the control plane's self-observability recorder: phase spans
// of the reconciliation loop, erms.self.* counters, and the /metrics +
// /spans + pprof HTTP surface. A nil *Recorder is valid and disables
// self-telemetry at zero cost.
type Recorder = obs.Recorder

// EnableObservability attaches a fresh self-observability recorder to the
// system — controller, orchestrator, and any reconciler created afterwards
// — bound to the system's metrics store, and returns it. Serve it with
// Recorder.ListenAndServe (or mount Recorder.Handler) to expose Prometheus
// text metrics, a JSON span dump, and net/http/pprof.
func (s *System) EnableObservability() *Recorder {
	rec := obs.New(s.ctrl.Metrics)
	s.ctrl.Obs = rec
	s.ctrl.Orch.SetRecorder(rec)
	return rec
}

// TotalContainers reports the containers currently deployed.
func (s *System) TotalContainers() int { return s.ctrl.Orch.TotalReplicas() }

// Controller exposes the underlying controller for advanced use (module
// internals remain importable only within this repository).
func (s *System) Controller() *core.Controller { return s.ctrl }

// ServiceProfile re-exports the simulator's per-microservice cost model for
// building custom applications.
type ServiceProfile = sim.ServiceProfile
