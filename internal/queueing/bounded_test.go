package queueing

import (
	"math"
	"testing"
)

// The bounded variants are the fluid fast path's contract: whatever the
// operating point, they return a finite value the simulator can schedule.
// The exact variants keep their error-returning behaviour; these tables pin
// the edge cases the exact API refuses.
func TestErlangCBoundedEdgeCases(t *testing.T) {
	const eps = 1e-12
	cases := []struct {
		name string
		q    MMC
		want float64
	}{
		{"stable interior", MMC{Lambda: 0.5, Mu: 1, Servers: 2}, 0}, // checked against ErlangC below
		{"zero offered load", MMC{Lambda: 0, Mu: 1, Servers: 2}, 0},
		{"negative load", MMC{Lambda: -1, Mu: 1, Servers: 2}, 0},
		{"zero service time", MMC{Lambda: 0.5, Mu: math.Inf(1), Servers: 2}, 0},
		{"utilization exactly 1", MMC{Lambda: 2, Mu: 1, Servers: 2}, 1},
		{"utilization above 1", MMC{Lambda: 5, Mu: 1, Servers: 2}, 1},
		{"no servers", MMC{Lambda: 1, Mu: 1, Servers: 0}, 1},
		{"zero service rate", MMC{Lambda: 1, Mu: 0, Servers: 2}, 1},
	}
	for _, tc := range cases {
		got := tc.q.ErlangCBounded()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: ErlangCBounded = %v, want finite", tc.name, got)
			continue
		}
		want := tc.want
		if tc.name == "stable interior" {
			var err error
			want, err = tc.q.ErlangC()
			if err != nil {
				t.Fatalf("stable interior: %v", err)
			}
		}
		if math.Abs(got-want) > eps {
			t.Errorf("%s: ErlangCBounded = %v, want %v", tc.name, got, want)
		}
	}
}

func TestWaitBoundedEdgeCases(t *testing.T) {
	const bound = 1000.0
	cases := []struct {
		name  string
		q     MMC
		p     float64
		wantQ float64
	}{
		{"zero load", MMC{Lambda: 0, Mu: 1, Servers: 1}, 0.95, 0},
		{"zero service time", MMC{Lambda: 0.5, Mu: math.Inf(1), Servers: 1}, 0.95, 0},
		{"saturated", MMC{Lambda: 2, Mu: 1, Servers: 2}, 0.95, bound},
		{"knee exactly at operating point", MMC{Lambda: 1, Mu: 1, Servers: 1}, 0.95, bound},
		{"quantile p=0", MMC{Lambda: 0.5, Mu: 1, Servers: 1}, 0, 0},
		{"quantile p=1", MMC{Lambda: 0.5, Mu: 1, Servers: 1}, 1, bound},
	}
	for _, tc := range cases {
		gotQ := tc.q.WaitQuantileBounded(tc.p, bound)
		if math.IsNaN(gotQ) || math.IsInf(gotQ, 0) {
			t.Fatalf("%s: non-finite bounded wait %v", tc.name, gotQ)
		}
		if math.Abs(gotQ-tc.wantQ) > 1e-9 {
			t.Errorf("%s: WaitQuantileBounded(%v) = %v, want %v", tc.name, tc.p, gotQ, tc.wantQ)
		}
	}
}

// Interior agreement: where the exact API is defined, the bounded variants
// must return the same value (modulo the cap).
func TestBoundedMatchesExactInInterior(t *testing.T) {
	q := MMC{Lambda: 1.4, Mu: 1, Servers: 2}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		exactQ, err := q.WaitQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.WaitQuantileBounded(p, 1e9); math.Abs(got-exactQ) > 1e-12 {
			t.Errorf("WaitQuantileBounded(%v) = %v, want %v", p, got, exactQ)
		}
	}
	// The cap binds the far tail: a 1 ms cap must clip the p=0.999999
	// quantile of a hot queue.
	hot := MMC{Lambda: 0.99, Mu: 1, Servers: 1}
	if got := hot.WaitQuantileBounded(0.999999, 1); got != 1 {
		t.Errorf("capped quantile = %v, want 1", got)
	}
}
