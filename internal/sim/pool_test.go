package sim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"erms/internal/parallel"
	"erms/internal/workload"
)

// dirtyPools leaves every list of the package holding used buffers larger
// than any pinned run's: end-to-end reservoirs filled past their bound (so
// their RNG draws), full per-minute reservoirs of a recorded minute, the
// call trees of 12 services' graphs, and 45 000-arrival minutes.
func dirtyPools(t *testing.T) {
	t.Helper()
	cfg := lockstepScenario{services: 12, block: 12, ratePerMin: 1000, durationMin: 1.2, seed: 9}.build(t)
	cfg.WarmupMin = 0
	cfg.Patterns["svc-000"] = workload.Static{Rate: 45_000}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	full := 0
	for _, s := range res.Samples {
		if s.Calls > latencySampleCap {
			full++
		}
	}
	if n := res.PerService["svc-000"].Count; n <= serviceSampleCap || full == 0 {
		t.Fatalf("the dirtying run sampled %d requests (bound %d) and filled %d minute reservoirs", n, serviceSampleCap, full)
	}
	res.Release()
}

// TestPooledBuffersStartClean: what a run takes from the lists carries
// capacity, never content. After a large run has dirtied every list, every
// pinned run still hashes to its golden line — at 1 worker and at 4, where
// the partitioned run's partitions take and return buffers concurrently.
// The pinned runs release their results as they go, so each also starts on
// what the previous one used.
func TestPooledBuffersStartClean(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		dirtyPools(t)
		got, _ := pinnedFingerprints(t)
		checkFingerprints(t, got)
	}
}

// TestReleaseContract: Release hands back the latency samples and nothing
// the Result stores. P95, ViolationRate, ErrorRate and Good read the same
// bits after it; Mean, which reads the sample, is NaN; a second Release
// changes nothing. A Result never released keeps its samples whole while
// later runs take and return theirs, and runs after a release read the same.
func TestReleaseContract(t *testing.T) {
	run := func() *Result {
		cfg := lockstepScenario{
			services: 3, block: 3, ratePerMin: 40_000, durationMin: 1.5, seed: 17,
			failures: []Failure{{Host: 2, AtMin: 0.7}},
		}.build(t)
		for svc := range cfg.SLAs {
			cfg.SLAs[svc] = workload.P95SLA(svc, 5)
		}
		res, err := Run(cfg, PartitionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	type stored struct{ p95, viol, errs uint64 }
	read := func(r *Result) map[string]stored {
		out := map[string]stored{}
		for svc, sr := range r.PerService {
			out[svc] = stored{math.Float64bits(sr.P95()), math.Float64bits(sr.ViolationRate()), math.Float64bits(sr.ErrorRate())}
			out[svc+"/good"] = stored{p95: uint64(sr.Good())}
		}
		return out
	}

	kept := run()
	keptText := fingerprint(kept, nil)
	res := run()
	if fingerprint(res, nil) != keptText {
		t.Fatal("two identical runs differ")
	}
	before := read(res)
	var errs, viol int
	for _, sr := range res.PerService {
		errs += sr.Errors
		viol += sr.Violations
	}
	if errs == 0 || viol == 0 {
		t.Fatalf("the run has %d errors and %d violations; the rates it checks would be trivial", errs, viol)
	}
	for range 2 {
		res.Release()
		for svc, want := range before {
			if got := read(res)[svc]; got != want {
				t.Fatalf("%s: stored values moved across Release: %+v, want %+v", svc, got, want)
			}
		}
		for svc, sr := range res.PerService {
			if sr.lat != nil || !math.IsNaN(sr.Mean()) {
				t.Fatalf("%s: the released sample is still held (Mean %v)", svc, sr.Mean())
			}
		}
	}

	again := run()
	if got := fingerprint(again, nil); got != keptText {
		t.Error("a run after a Release differs from the first")
	}
	if fingerprint(kept, nil) != keptText {
		t.Error("an unreleased Result's samples changed while later runs reused the lists")
	}
}

// TestWarmRunAllocatesAQuarter: a window's run allocates what it decides,
// not what the last one measured. With the lists emptied and the GC paused
// (this process only), a second identical run of a 3-service, 1-minute
// config at 20 000 requests/min, released like the first, allocates under a
// quarter of the first's bytes: the reservoirs, arrival minutes, selection
// scratch and call trees come back from the lists.
func TestWarmRunAllocatesAQuarter(t *testing.T) {
	cfgs := make([]Config, 2)
	for i := range cfgs {
		cfgs[i] = lockstepScenario{services: 3, block: 3, ratePerMin: 20_000, durationMin: 1, seed: 21}.build(t)
		cfgs[i].WarmupMin = 0
	}
	runtime.GC() // two idle cycles empty every list
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes := make([]uint64, len(cfgs))
	var ms runtime.MemStats
	for i, cfg := range cfgs {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		res, err := Run(cfg, PartitionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		runtime.ReadMemStats(&ms)
		bytes[i] = ms.TotalAlloc - start
	}
	t.Logf("cold run %d bytes, warm run %d bytes", bytes[0], bytes[1])
	if 4*bytes[1] >= bytes[0] {
		t.Fatalf("the warm run allocated %d bytes, not under a quarter of the cold run's %d", bytes[1], bytes[0])
	}
}
