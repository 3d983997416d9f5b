package sim

import "testing"

// BenchmarkEngineSchedule measures the cost of pushing and draining events
// through the engine — the innermost loop of every simulation. heap is a
// burst of out-of-order schedules followed by a drain, like a wave of
// arrivals with staggered completions; mix is a simulated call's traffic, two
// network hops for every drawn-time event, and mix-oneheap the same traffic
// through the one-heap oracle — what the lane saves. All should be ~0
// allocs/op once the backing arrays are warm.
func BenchmarkEngineSchedule(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		eng := newEngine(0)
		var fired int
		fn := func() { fired++ }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 64; k++ {
				eng.Schedule(float64((k*37)%64), fn)
			}
			eng.Run(eng.Now() + 64)
		}
		if fired != b.N*64 {
			b.Fatalf("fired %d, want %d", fired, b.N*64)
		}
	})
	for _, c := range []struct {
		name string
		eng  scheduler
	}{{"mix", newEngine(0.5)}, {"mix-oneheap", &oracleEngine{lag: 0.5}}} {
		eng := c.eng
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			wave := mixWave(eng)
			wave()
			before := eng.Stats().Events
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wave()
			}
			if got := eng.Stats().Events - before; got != int64(b.N)*63 {
				b.Fatalf("ran %d events, want %d", got, b.N*63)
			}
		})
	}
}

// mixWave returns a function that pushes and drains one wave of 63 events in
// a call's proportions: 42 hops and 21 events at staggered times. The hops
// are stale timeouts of one settled frame, which handle runs as no-ops.
func mixWave(eng scheduler) func() {
	fn := func() {}
	f := &Job{settled: true}
	return func() {
		f.refs = 64 // each hop's handler drops one
		now := eng.Now()
		for k := 0; k < 21; k++ {
			eng.hopFrame(f, evTimeout)
			eng.At(now+float64((k*37)%21)/8, fn)
			eng.hopFrame(f, evTimeout)
		}
		eng.Run(now + 4)
	}
}

// TestEngineScheduleSteadyStateZeroAlloc is the allocation gate on the
// simulator's innermost loop: once the heap's backing array is warm,
// scheduling and draining events must not allocate. The resilience layer
// must keep this true — its bookkeeping lives off the disabled path.
func TestEngineScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := newEngine(0)
	fn := func() {}
	warm := func() {
		for k := 0; k < 64; k++ {
			eng.Schedule(float64((k*37)%64), fn)
		}
		eng.Run(eng.Now() + 64)
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("engine schedule/drain allocates %.1f per wave, want 0", allocs)
	}
}

// TestLaneSteadyStateZeroAlloc is the same gate with the lane in play: a warm
// mix of network hops and heap events allocates nothing.
func TestLaneSteadyStateZeroAlloc(t *testing.T) {
	eng := newEngine(0.5)
	wave := mixWave(eng)
	wave()
	if allocs := testing.AllocsPerRun(200, wave); allocs != 0 {
		t.Fatalf("lane/heap schedule/drain allocates %.1f per wave, want 0", allocs)
	}
	if eng.Pending() != 0 || eng.heapPushes*3 != eng.Stats().Events {
		t.Fatalf("wave left %d pending, %d of %d events on the heap", eng.Pending(), eng.heapPushes, eng.Stats().Events)
	}
}
