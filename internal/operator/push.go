package operator

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"erms/internal/apps"
	"erms/internal/obs"
	"erms/internal/persist"
	"erms/internal/spec"
)

// Push submits a new spec document (YAML or JSON bytes) as a candidate
// generation. source labels where it came from ("file:<path>", "api",
// "test"). The document is parsed strictly, compiled, and admission-checked
// against the committed generation; a rejected push is still recorded as a
// generation (status rejected) so the history stays auditable, and the
// error says why.
//
// Concurrency policy — deterministic by construction and table-tested:
//
//   - a push landing while a previous rollout is still in CANARY
//     SUPERSEDES it: the old candidate is discarded (status superseded,
//     rollout_superseded_total) and the new one starts its canary at the
//     next window. The fleet never saw the old candidate, so dropping it
//     loses nothing.
//   - a push landing while a rollout is PROMOTING or SOAKING QUEUES behind
//     it: the fleet is already running the in-flight candidate's
//     configuration, and yanking it mid-soak would leave the guardrail
//     verdict undecided. The queued push starts once the machine returns to
//     idle.
func (o *Operator) Push(data []byte, source string) (*Generation, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	gen := &Generation{
		ID:     len(o.gens) + 1,
		Source: source,
		Status: StatusRejected,
		// The push lands before the next Step, so it belongs to the window
		// about to run.
		PushedWindow:  o.window,
		DecidedWindow: o.window,
	}
	s, err := spec.Parse(data)
	if err != nil {
		gen.Name = "invalid"
		gen.Reason = err.Error()
		o.gens = append(o.gens, gen)
		return gen, fmt.Errorf("operator: push rejected: %w", err)
	}
	gen.Name = s.Name
	sc, err := s.Compile()
	if err != nil {
		gen.Reason = err.Error()
		o.gens = append(o.gens, gen)
		return gen, fmt.Errorf("operator: push rejected: %w", err)
	}
	if err := o.admit(sc); err != nil {
		gen.Reason = err.Error()
		o.gens = append(o.gens, gen)
		return gen, fmt.Errorf("operator: push rejected: %w", err)
	}
	gen.scenario = sc
	gen.DecidedWindow = -1
	o.gens = append(o.gens, gen)

	switch o.phase {
	case PhaseCanary:
		// Supersede: the fleet never saw the old candidate.
		o.cand.Status = StatusSuperseded
		o.cand.DecidedWindow = o.window
		o.cand.Reason = fmt.Sprintf("superseded by generation %d", gen.ID)
		o.rec.Inc(obs.CtrRolloutSuperseded)
		o.startRollout(gen, o.window)
	case PhasePromoting, PhaseSoaking:
		gen.Status = StatusQueued
		o.pending = append(o.pending, gen)
	default:
		o.startRollout(gen, o.window)
	}
	return gen, nil
}

// admit checks a candidate scenario against the committed one: a rollout
// swaps configuration (SLAs, resilience, scheme, cohort patterns) on the
// running system, so the structural invariants — the application shape
// (graphs, service profiles, container specs), the cluster size, the
// planning-window length, and the latency models the fleet was built with —
// must match. Changing those is a redeploy, not a rollout,
// and is rejected deterministically.
func (o *Operator) admit(sc *spec.Scenario) error {
	cur := o.committed.scenario
	if !reflect.DeepEqual(sortedServices(sc), sortedServices(cur)) {
		return fmt.Errorf("operator: candidate services %v != running services %v (changing the topology requires a redeploy)",
			sortedServices(sc), sortedServices(cur))
	}
	if !reflect.DeepEqual(sc.App.Microservices(), cur.App.Microservices()) {
		return fmt.Errorf("operator: candidate microservice set differs from the running topology (changing it requires a redeploy)")
	}
	same, err := sameTopology(sc.App, cur.App)
	if err != nil {
		return fmt.Errorf("operator: %w", err)
	}
	if !same {
		return fmt.Errorf("operator: candidate graphs, service profiles or container specs differ from the running topology (changing it requires a redeploy)")
	}
	if sc.Hosts != cur.Hosts {
		return fmt.Errorf("operator: candidate run.hosts %d != running cluster size %d", sc.Hosts, cur.Hosts)
	}
	if math.Abs(sc.WindowMin-cur.WindowMin) > 1e-9 {
		return fmt.Errorf("operator: candidate window_min %g != running window_min %g", sc.WindowMin, cur.WindowMin)
	}
	if sc.Spec.Run.Models != cur.Spec.Run.Models {
		return fmt.Errorf("operator: candidate run.models %q != running run.models %q (the fleet's models are fixed when it is built)",
			sc.Spec.Run.Models, cur.Spec.Run.Models)
	}
	return nil
}

// sameTopology reports whether two apps have the same graphs, service
// profiles and container specs: their persisted forms are byte-identical
// once the name and the SLAs, which a rollout may change, are set aside.
func sameTopology(a, b *apps.App) (bool, error) {
	var renders [2]bytes.Buffer
	for i, app := range []*apps.App{a, b} {
		c := *app
		c.Name, c.SLAs = b.Name, b.SLAs
		if err := persist.SaveApp(&renders[i], &c); err != nil {
			return false, err
		}
	}
	return bytes.Equal(renders[0].Bytes(), renders[1].Bytes()), nil
}
