// Package apps defines the benchmark applications used throughout the
// evaluation: hand-built dependency-graph topologies equivalent to
// DeathStarBench's Social Network, Media Service, and Hotel Reservation
// applications (with the paper's microservice/service/shared-microservice
// counts, §6.1), plus a synthetic generator matching the shape statistics of
// the Alibaba/Taobao production traces (Fig. 2, §6.5).
package apps

import (
	"fmt"
	"sort"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/workload"
)

// App bundles everything needed to deploy and drive one benchmark
// application.
type App struct {
	Name string
	// Graphs holds one dependency graph per online service.
	Graphs []*graph.Graph
	// Profiles gives the intrinsic service time of each microservice.
	Profiles map[string]sim.ServiceProfile
	// SLAs holds the default SLA per service.
	SLAs map[string]workload.SLA
	// Containers gives the container spec per microservice.
	Containers map[string]cluster.ContainerSpec
}

// Services returns the service names in graph order.
func (a *App) Services() []string {
	out := make([]string, len(a.Graphs))
	for i, g := range a.Graphs {
		out[i] = g.Service
	}
	return out
}

// Graph returns the dependency graph of the named service, or nil.
func (a *App) Graph(service string) *graph.Graph {
	for _, g := range a.Graphs {
		if g.Service == service {
			return g
		}
	}
	return nil
}

// Microservices returns the sorted set of unique microservices across all
// services.
func (a *App) Microservices() []string {
	seen := make(map[string]bool)
	for _, g := range a.Graphs {
		for _, ms := range g.Microservices() {
			seen[ms] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ms := range seen {
		out = append(out, ms)
	}
	sort.Strings(out)
	return out
}

// Shared returns the sorted microservices that appear in more than one
// service's dependency graph (§2.3).
func (a *App) Shared() []string {
	count := make(map[string]int)
	for _, g := range a.Graphs {
		for _, ms := range g.Microservices() {
			count[ms]++
		}
	}
	var out []string
	for ms, n := range count {
		if n > 1 {
			out = append(out, ms)
		}
	}
	sort.Strings(out)
	return out
}

// SharingDegree returns, per microservice, the number of services whose
// graphs include it — the quantity whose CDF Fig. 2 plots.
func (a *App) SharingDegree() map[string]int {
	count := make(map[string]int)
	for _, g := range a.Graphs {
		for _, ms := range g.Microservices() {
			count[ms]++
		}
	}
	return count
}

// Validate checks that the app is internally consistent: valid graphs, a
// profile and a container spec for every microservice, the spec describing
// the microservice it is filed under, and a valid SLA per service that names
// the service it is filed under.
func (a *App) Validate() error {
	if len(a.Graphs) == 0 {
		return fmt.Errorf("apps: %s has no services", a.Name)
	}
	seen := make(map[string]bool)
	for _, g := range a.Graphs {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("apps: %s/%s: %w", a.Name, g.Service, err)
		}
		if seen[g.Service] {
			return fmt.Errorf("apps: %s has duplicate service %s", a.Name, g.Service)
		}
		seen[g.Service] = true
		sla, ok := a.SLAs[g.Service]
		if !ok {
			return fmt.Errorf("apps: %s/%s has no SLA", a.Name, g.Service)
		}
		if err := sla.Validate(); err != nil {
			return fmt.Errorf("apps: %s/%s: %w", a.Name, g.Service, err)
		}
		if sla.Service != g.Service {
			return fmt.Errorf("apps: %s/%s has the SLA of service %q", a.Name, g.Service, sla.Service)
		}
	}
	for _, ms := range a.Microservices() {
		p, ok := a.Profiles[ms]
		if !ok {
			return fmt.Errorf("apps: %s missing profile for %s", a.Name, ms)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("apps: %s profile for %s: %w", a.Name, ms, err)
		}
		if p.BaseMs == 0 {
			return fmt.Errorf("apps: %s has non-positive base time for %s", a.Name, ms)
		}
		spec, ok := a.Containers[ms]
		if !ok {
			return fmt.Errorf("apps: %s missing container spec for %s", a.Name, ms)
		}
		if spec.Microservice != ms {
			return fmt.Errorf("apps: %s/%s has the container spec of microservice %q", a.Name, ms, spec.Microservice)
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("apps: %s: %w", a.Name, err)
		}
	}
	return nil
}

// newApp assembles an App, filling container specs with the paper defaults.
func newApp(name string, graphs []*graph.Graph, profiles map[string]sim.ServiceProfile, slas map[string]workload.SLA) *App {
	a := &App{
		Name:       name,
		Graphs:     graphs,
		Profiles:   profiles,
		SLAs:       slas,
		Containers: make(map[string]cluster.ContainerSpec),
	}
	for _, ms := range a.Microservices() {
		a.Containers[ms] = defaultSpec(ms)
	}
	return a
}

// defaultSpec gives every microservice the paper's uniform container shape
// (0.1 core / 200 MB, §6.1) with a lean two-thread worker pool, which gives
// the gradual pre-knee latency growth of Fig. 3 rather than a knife-edge
// thread-pool saturation. Uniform containers also keep the evaluation's
// "number of deployed containers" metric equivalent to resource usage, as
// in the paper.
func defaultSpec(ms string) cluster.ContainerSpec {
	spec := cluster.PaperContainer(ms)
	spec.Threads = 2
	return spec
}
