package sim

import (
	"testing"

	"erms/internal/obs"
	"erms/internal/workload"
)

// TestExportToMapsEveryField gives every exported field a distinct value and
// checks it lands under its own series: counts accumulate across runs, the
// heap peak is a high-water mark, erms.data.* exists for every run, and
// per-tier outcomes cover exactly the tiers the streams carried.
func TestExportToMapsEveryField(t *testing.T) {
	res := &Result{
		Engine:                RunStats{EngineStats: EngineStats{Events: 1, HeapPeak: 2}, JobsAllocated: 3, JobsRecycled: 4},
		Partitions:            5,
		FluidContainerMinutes: 6,
		ExactContainerMinutes: 7,
		Data: DataStats{
			Attempts: 10, Timeouts: 11, Retries: 12, RetryBudgetExhausted: 13,
			BreakerOpens: 14, BreakerShortCircuits: 15, Shed: 16,
			CrashFailures: 17, DeadlineSkips: 18, Unavailable: 19,
		},
		PerService: map[string]*ServiceResult{"a": {Errors: 20}, "b": {Errors: 1}},
		PerStream: []*StreamResult{
			{Tier: workload.TierCritical, Count: 30, Violations: 4, Errors: 2},
			{Tier: workload.TierCritical, Count: 10, Violations: 1, Errors: 1},
			{Tier: workload.TierBatch, Count: 8, Violations: 8, Errors: 5},
		},
	}
	res.Data.ShedByTier[workload.TierBatch] = 9

	rec := obs.New(nil)
	res.ExportTo(rec)
	res.ExportTo(rec)
	want := map[string]float64{
		obs.CtrSimEvents: 2, obs.GaugeSimHeapPeak: 2, obs.CtrSimJobsAlloc: 6, obs.CtrSimJobsRecycled: 8,
		obs.CtrSimPartitions: 10, obs.CtrSimFluidContainers: 12, obs.CtrSimExactContainers: 14,
		obs.CtrDataAttempts: 20, obs.CtrDataTimeouts: 22, obs.CtrDataRetries: 24,
		obs.CtrDataRetryBudgetExhausted: 26, obs.CtrDataBreakerOpens: 28,
		obs.CtrDataBreakerShortCircuits: 30, obs.CtrDataShed: 32, obs.CtrDataCrashFailures: 34,
		obs.CtrDataDeadlineSkips: 36, obs.CtrDataUnavailable: 38, obs.CtrDataErrors: 42,
		obs.TierDataCounter("critical", "success"): 70, obs.TierDataCounter("critical", "slow"): 10,
		obs.TierDataCounter("critical", "error"): 6, obs.TierDataCounter("critical", "shed"): 0,
		obs.TierDataCounter("batch", "success"): 0, obs.TierDataCounter("batch", "slow"): 16,
		obs.TierDataCounter("batch", "error"): 10, obs.TierDataCounter("batch", "shed"): 18,
	}
	got := rec.Counters()
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("exported %d series, want %d: %v", len(got), len(want), got)
	}

	plain := obs.New(nil)
	res.PerStream = nil
	res.ExportTo(plain)
	if got := plain.Counters(); len(got) != 18 {
		t.Errorf("streamless run exported %d series, want the 7 engine and 11 data-plane ones: %v", len(got), got)
	}
	res.ExportTo(nil) // nil recorder: no-op
}
