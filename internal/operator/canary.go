package operator

import (
	"fmt"
	"math"

	"erms/internal/apps"
	"erms/internal/core"
	"erms/internal/sim"
	"erms/internal/spec"
	"erms/internal/workload"
)

// canaryRun is the sandboxed canary: the candidate generation's
// configuration evaluated on a fraction-sized slice — the first
// ceil(fraction·N) services by sorted name, a fraction-sized cluster, and
// the same cohort arrival patterns scaled down by the fraction. It has its
// own cluster, orchestrator, and controller, so nothing it does can perturb
// the production fleet; its window seeds mix in the generation ID, so two
// different candidates never share a trajectory.
type canaryRun struct {
	sc       *spec.Scenario
	services map[string]bool
	loop     *spec.Loop
	fraction float64
	genID    int
	err      error // construction error, surfaced by step
}

// newCanaryRun builds the sandbox for the candidate scenario. changed lists
// the services whose SLA the candidate alters; they are pinned into the
// canary slice. Construction errors are deferred to step so the state
// machine handles them as a canary breach rather than an operator crash.
func newCanaryRun(sc *spec.Scenario, cfg Config, genID int, changed []string) *canaryRun {
	slice := canarySlice(sc, cfg.CanaryFraction, changed)
	services := make(map[string]bool, len(slice))
	for _, svc := range slice {
		services[svc] = true
	}
	c := &canaryRun{sc: sc, services: services, fraction: cfg.CanaryFraction, genID: genID}

	sub := &apps.App{
		Name:       sc.App.Name + "-canary",
		Profiles:   sc.App.Profiles,
		SLAs:       sc.App.SLAs,
		Containers: sc.App.Containers,
	}
	for _, g := range sc.App.Graphs {
		if services[g.Service] {
			sub.Graphs = append(sub.Graphs, g)
		}
	}

	hosts := int(math.Ceil(cfg.CanaryFraction * float64(sc.Hosts)))
	if hosts < 2 {
		hosts = 2
	}
	loop, err := sc.NewLoop(sub, hosts, nil, c.windowStreams, nil)
	if err != nil {
		c.err = fmt.Errorf("canary controller: %w", err)
	}
	c.loop = loop
	return c
}

// windowStreams returns the candidate's cohort streams restricted to the
// canary services, with arrival rates scaled by the canary fraction.
// The reconciler's window index is the operator window, so the canary sees
// the same phase of the workload timeline the fleet does.
func (c *canaryRun) windowStreams(w int) []sim.Stream {
	full := c.sc.WindowStreams(w % c.sc.Windows)
	var out []sim.Stream
	for _, st := range full {
		if !c.services[st.Service] {
			continue
		}
		st.Pattern = scaledPattern{inner: st.Pattern, f: c.fraction}
		out = append(out, st)
	}
	return out
}

// step runs one canary window and returns its report.
func (c *canaryRun) step(w int) (*core.WindowReport, error) {
	if c.err != nil {
		return nil, c.err
	}
	widx := w % c.sc.Windows
	rates := make(map[string]float64)
	for svc, r := range c.sc.OfferedRates(widx) {
		if !c.services[svc] {
			continue
		}
		r *= c.fraction
		if r < 1 {
			r = 1
		}
		rates[svc] = r
	}
	seed := c.sc.Seed + uint64(c.genID)*9176 + uint64(w)*1000003 + 7
	return c.loop.Step(rates, seed)
}

// scaledPattern scales an arrival pattern by the canary fraction.
type scaledPattern struct {
	inner workload.Pattern
	f     float64
}

func (s scaledPattern) RateAt(t float64) float64 { return s.inner.RateAt(t) * s.f }

func (s scaledPattern) String() string {
	return fmt.Sprintf("Scaled(%s, x%g)", s.inner.String(), s.f)
}
