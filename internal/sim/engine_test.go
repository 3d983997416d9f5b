package sim

import (
	"testing"

	"erms/internal/stats"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := newEngine(0)
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(9, func() { order = append(order, 3) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := newEngine(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := newEngine(0)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(10.0001, func() { ran++ })
	e.Run(10)
	if ran != 1 {
		t.Fatalf("ran = %d, want exactly the event at the boundary", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(11)
	if ran != 2 {
		t.Fatalf("ran = %d after second Run", ran)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newEngine(0)
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := newEngine(0)
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-10, func() { fired = true })
	})
	e.Run(5)
	if !fired {
		t.Fatal("past-scheduled event did not run")
	}
	if e.Now() != 5 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestFCFSPicksOldest(t *testing.T) {
	q := []*Job{{Priority: 5}, {Priority: 0}}
	if got := (FCFS{}).Pick(q, stats.NewRNG(1)); got != 0 {
		t.Fatalf("FCFS picked %d", got)
	}
}

func TestPriorityPolicyStrictWhenDeltaZero(t *testing.T) {
	p := PriorityPolicy{Delta: 0}
	r := stats.NewRNG(1)
	q := []*Job{{Priority: 2}, {Priority: 1}, {Priority: 0}, {Priority: 0}}
	for i := 0; i < 100; i++ {
		if got := p.Pick(q, r); got != 2 {
			t.Fatalf("strict priority picked index %d", got)
		}
	}
}

func TestPriorityPolicyDeltaDistribution(t *testing.T) {
	p := PriorityPolicy{Delta: 0.2}
	r := stats.NewRNG(1)
	q := []*Job{{Priority: 1}, {Priority: 0}}
	high := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Pick(q, r) == 1 { // index 1 holds priority 0 (highest)
			high++
		}
	}
	frac := float64(high) / n
	if frac < 0.79 || frac > 0.81 {
		t.Fatalf("high-priority share = %v, want ~0.8", frac)
	}
}

func TestPriorityPolicyThreeClasses(t *testing.T) {
	p := PriorityPolicy{Delta: 0.1}
	r := stats.NewRNG(2)
	q := []*Job{{Priority: 2}, {Priority: 1}, {Priority: 0}}
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[q[p.Pick(q, r)].Priority]++
	}
	// Expected: 0.9, 0.09, 0.01.
	want := []float64{0.9, 0.09, 0.01}
	for i, w := range want {
		got := float64(counts[i]) / n
		if got < w*0.8 || got > w*1.2 {
			t.Fatalf("class %d share = %v, want ~%v", i, got, w)
		}
	}
}

func TestPriorityPolicyWithinClassFCFS(t *testing.T) {
	p := PriorityPolicy{Delta: 0}
	r := stats.NewRNG(3)
	first := &Job{Priority: 0}
	q := []*Job{{Priority: 1}, first, {Priority: 0}}
	if got := p.Pick(q, r); q[got] != first {
		t.Fatalf("picked index %d, want the oldest job of the best class", got)
	}
}

func TestPriorityPolicySingleClass(t *testing.T) {
	p := PriorityPolicy{Delta: 0.05}
	r := stats.NewRNG(4)
	q := []*Job{{Priority: 3}, {Priority: 3}}
	for i := 0; i < 50; i++ {
		if got := p.Pick(q, r); got != 0 {
			t.Fatalf("single class picked %d", got)
		}
	}
}
