package multiplex

import (
	"runtime"
	"testing"

	"erms/internal/apps"
)

// replanBytesPerService bounds the heap bytes one PlanScheme call allocates
// per replanned service on a warm planner: the measured level (~3 780 bytes
// on linux/amd64) plus 10 %. A replan pays for its decisions — one Targets
// map and three slices per service — plus its share of the window's Plan
// maps.
const replanBytesPerService = 4160

// TestReplanHeapBytesPerDirtyService is the allocation gate of a replan: a
// warm planner on a 100-service topology, every group dirtied by a
// utilization move, allocates at most replanBytesPerService heap bytes per
// replanned service in one window — and hands out fresh slices, never the
// previous window's.
func TestReplanHeapBytesPerDirtyService(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{Services: 100, MicroservicesPerService: 50, SharingDegree: 10})
	p := NewIncrementalPlanner(nil)
	window := func(cpu float64) *Plan {
		for svc, in := range inputs {
			in.CPUUtil = cpu
			inputs[svc] = in
		}
		return planIncremental(t, p, SchemePriority, inputs, loads, shared, "replan")
	}
	window(0.30)
	prev := window(0.31)

	var before, after runtime.MemStats
	stats := p.Stats()
	runtime.ReadMemStats(&before)
	plan := window(0.32)
	runtime.ReadMemStats(&after)
	dirty := p.Stats().DirtyServices - stats.DirtyServices
	if dirty != uint64(len(inputs)) {
		t.Fatalf("a utilization move replanned %d services, want all %d", dirty, len(inputs))
	}
	perService := (after.TotalAlloc - before.TotalAlloc) / dirty
	t.Logf("%d heap bytes per replanned service (bound %d)", perService, replanBytesPerService)
	if perService > replanBytesPerService {
		t.Errorf("a replan allocates %d heap bytes per service, bound %d", perService, replanBytesPerService)
	}
	for svc, a := range plan.PerService {
		b := prev.PerService[svc]
		if a == b || &a.ContainersRaw[0] == &b.ContainersRaw[0] || &a.Containers[0] == &b.Containers[0] ||
			&a.UsedHigh[0] == &b.UsedHigh[0] {
			t.Fatalf("%s: the replan reused the previous window's allocation storage", svc)
		}
	}
}
