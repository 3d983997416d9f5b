package core

import (
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"erms/internal/multiplex"
	"erms/internal/scaling"
	"erms/internal/sim"
)

// snapshotHook is a ChaosHook that fails plan or apply for whole windows and,
// on every window it lets plan through, computes the from-scratch oracle at
// the instant the loop is about to plan — after repair, before apply — which
// is the only moment the planner's utilization inputs can be reproduced.
type snapshotHook struct {
	t                   *testing.T
	c                   *Controller
	failPlan, failApply map[int]bool
	rates               map[string]float64 // the window about to run
	oracle              *multiplex.Plan
}

func (h *snapshotHook) OpError(w int, op string, _ int) error {
	switch {
	case op == "plan" && h.failPlan[w]:
		return errors.New("injected plan fault")
	case op == "apply" && h.failApply[w]:
		return errors.New("injected apply fault")
	case op == "plan":
		h.oracle = oraclePlan(h.t, h.c, h.rates)
	}
	return nil
}
func (h *snapshotHook) WindowFailures(int) []sim.Failure { return nil }
func (h *snapshotHook) ObservabilityGap(int) bool        { return false }

// snapshotPlan deep-copies everything reachable from a plan.
func snapshotPlan(p *multiplex.Plan) *multiplex.Plan {
	cp := *p
	cp.Containers = maps.Clone(p.Containers)
	cp.PerService = make(map[string]*scaling.Allocation, len(p.PerService))
	for svc, a := range p.PerService {
		b := *a
		b.Targets = maps.Clone(a.Targets)
		b.Microservices = slices.Clone(a.Microservices)
		b.ContainersRaw = slices.Clone(a.ContainersRaw)
		b.Containers = slices.Clone(a.Containers)
		b.UsedHigh = slices.Clone(a.UsedHigh)
		cp.PerService[svc] = &b
	}
	if p.Ranks != nil {
		cp.Ranks = make(map[string]map[string]int, len(p.Ranks))
		for ms, bySvc := range p.Ranks {
			cp.Ranks[ms] = maps.Clone(bySvc)
		}
	}
	return &cp
}

// TestPlansAreImmutableSnapshots drives the reconciler through hysteresis
// holds, a window whose planning fails and a window whose apply fails (both
// degrade to lastPlan), with the planner handing out its cached allocations
// and rank maps uncopied. After every window: (i) the plan the loop applied
// is the from-scratch oracle's, bit for bit, apart from held container
// counts; (ii) every plan any earlier window returned still deep-equals the
// copy taken when it was returned — replans swap objects, the loop derives
// its applied plan as a new value, and nothing edits a plan in place.
func TestPlansAreImmutableSnapshots(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.2
	r.WarmupMin = 0.05
	r.DownscaleSlack = 0.5 // hotel counts are single digits: hold anything short of a halving
	hook := &snapshotHook{
		t: t, c: c,
		failPlan:  map[int]bool{3: true},
		failApply: map[int]bool{5: true},
	}
	r.Chaos = hook

	// Dips inside the slack band (holds), a plan outage, a surge whose apply
	// fails, then a drop deep enough to scale down for real.
	levels := []float64{60_000, 50_000, 80_000, 75_000, 70_000, 110_000, 65_000, 8_000}
	type kept struct {
		window     int
		plan, copy *multiplex.Plan
	}
	var earlier []kept
	holds, scaledDown := 0, 0
	for w, level := range levels {
		hook.rates, hook.oracle = hotelRates(level), nil
		if hook.failPlan[w] {
			// An out-of-band scale-up ahead of the plan outage: the degraded
			// window then holds a count above lastPlan's — the one case where
			// re-applying lastPlan adjusts it, and must not do so in place.
			if err := c.Orch.Scale("profile", c.Orch.Replicas("profile")+2); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := r.Step(hook.rates, uint64(w+1))
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		degraded := hook.failPlan[w] || hook.failApply[w]
		if rep.Degraded != degraded {
			t.Fatalf("window %d: degraded = %v, want %v", w, rep.Degraded, degraded)
		}
		scaledDown += rep.ScaledDown
		plan := r.lastPlan
		if !degraded {
			want := hook.oracle
			if plan.Scheme != want.Scheme ||
				math.Float64bits(plan.ResourceUsage) != math.Float64bits(want.ResourceUsage) ||
				!reflect.DeepEqual(plan.PerService, want.PerService) ||
				!reflect.DeepEqual(plan.Ranks, want.Ranks) {
				t.Fatalf("window %d: applied plan diverged from the from-scratch oracle", w)
			}
			if len(plan.Containers) != len(want.Containers) {
				t.Fatalf("window %d: %d merged microservices, oracle has %d", w, len(plan.Containers), len(want.Containers))
			}
			for ms, n := range want.Containers {
				got := plan.Containers[ms]
				if got < n || got != c.Orch.Replicas(ms) {
					t.Fatalf("window %d: %s applied at %d (oracle %d, deployed %d)", w, ms, got, n, c.Orch.Replicas(ms))
				}
				if got > n {
					holds++
				}
			}
		}
		earlier = append(earlier, kept{w, plan, snapshotPlan(plan)})
		for _, k := range earlier {
			if !reflect.DeepEqual(k.plan, k.copy) {
				t.Fatalf("window %d edited the plan returned by window %d", w, k.window)
			}
		}
	}
	if holds == 0 || scaledDown == 0 {
		t.Fatalf("scenario exercised %d holds and %d scale-downs; want both", holds, scaledDown)
	}
}
