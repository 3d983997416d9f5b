package profiling

import (
	"math"
	"testing"

	"erms/internal/cluster"
	"erms/internal/sim"
)

// TestAnalyticDegenerateKneeStaysFinite pins the minKnee floor: when
// saturation collapses toward zero (absurd service times, or an interference
// model with enormous penalties), Knee must floor at minKnee and Params must
// stay finite on both branches. Before the floor, the high/low slopes
// (KneeFactor-1)·l0/knee diverged to +Inf.
func TestAnalyticDegenerateKneeStaysFinite(t *testing.T) {
	crush := cluster.InterferenceModel{CPULinear: 1e12, CPUQuad: 1e12, MemLinear: 1e12, MemKnee: 0, MemCompaction: 1e12}
	cases := []struct {
		name     string
		m        *Analytic
		cpu, mem float64
	}{
		{"absurd service time", NewAnalytic(sim.ServiceProfile{BaseMs: 1e9}, 1, cluster.DefaultInterference), 0.5, 0.5},
		{"crushing interference", NewAnalytic(sim.ServiceProfile{BaseMs: 2}, 4, crush), 1, 1},
		{"healthy control", NewAnalytic(sim.ServiceProfile{BaseMs: 2}, 4, cluster.DefaultInterference), 0.3, 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.m.Knee(tc.cpu, tc.mem)
			if !(k >= minKnee) || math.IsInf(k, 0) || math.IsNaN(k) {
				t.Fatalf("knee = %v, want finite >= %v", k, minKnee)
			}
			for _, high := range []bool{false, true} {
				a, b := tc.m.Params(high, tc.cpu, tc.mem)
				if math.IsInf(a, 0) || math.IsNaN(a) || a <= 0 {
					t.Fatalf("high=%v slope = %v, want finite > 0", high, a)
				}
				if math.IsInf(b, 0) || math.IsNaN(b) || b <= 0 {
					t.Fatalf("high=%v intercept = %v, want finite > 0", high, b)
				}
			}
			if p := tc.m.Predict(10*k, tc.cpu, tc.mem); math.IsInf(p, 0) || math.IsNaN(p) {
				t.Fatalf("predict past knee = %v", p)
			}
		})
	}
	// The floor must not perturb a healthy model: knee well above minKnee.
	healthy := NewAnalytic(sim.ServiceProfile{BaseMs: 2}, 4, cluster.DefaultInterference)
	if k := healthy.Knee(0.2, 0.2); k < 1000 {
		t.Fatalf("healthy knee = %v, expected thousands of calls/min", k)
	}
}
