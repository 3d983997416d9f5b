package sim

import (
	"erms/internal/obs"
	"erms/internal/workload"
)

// series is one exported value: an obs series name and this run's count.
type series struct {
	name string
	n    float64
}

// counters is the one table tying a Result's engine, partition and
// data-plane telemetry (RunStats, EngineStats, DataStats) to obs series:
// exporting a new field is one line here plus its name constant in obs.
// The erms.data.* rows exist only for a resilient run, so they are exported
// — at zero when nothing failed — exactly when the fault model ran.
func (r *Result) counters(resilient bool) []series {
	out := []series{
		{obs.CtrSimEvents, float64(r.Engine.Events)},
		{obs.CtrSimJobsAlloc, float64(r.Engine.JobsAllocated)},
		{obs.CtrSimJobsRecycled, float64(r.Engine.JobsRecycled)},
		{obs.CtrSimPartitions, float64(r.Partitions)},
		{obs.CtrSimFluidContainers, float64(r.FluidContainerMinutes)},
		{obs.CtrSimExactContainers, float64(r.ExactContainerMinutes)},
	}
	if !resilient {
		return out
	}
	errs := 0
	for _, sr := range r.PerService {
		errs += sr.Errors
	}
	d := &r.Data
	return append(out,
		series{obs.CtrDataAttempts, float64(d.Attempts)},
		series{obs.CtrDataTimeouts, float64(d.Timeouts)},
		series{obs.CtrDataRetries, float64(d.Retries)},
		series{obs.CtrDataRetryBudgetExhausted, float64(d.RetryBudgetExhausted)},
		series{obs.CtrDataBreakerOpens, float64(d.BreakerOpens)},
		series{obs.CtrDataBreakerShortCircuits, float64(d.BreakerShortCircuits)},
		series{obs.CtrDataShed, float64(d.Shed)},
		series{obs.CtrDataCrashFailures, float64(d.CrashFailures)},
		series{obs.CtrDataDeadlineSkips, float64(d.DeadlineSkips)},
		series{obs.CtrDataUnavailable, float64(d.Unavailable)},
		series{obs.CtrDataErrors, float64(errs)},
	)
}

// ExportTo accumulates one run's counters into the self-observability
// recorder; resilient says whether Config.Resilience was set. Per-SLO-tier
// outcomes are written for the tiers the run's streams carried. No-op on a
// nil recorder.
func (r *Result) ExportTo(rec *obs.Recorder, resilient bool) {
	if rec == nil {
		return
	}
	for _, c := range r.counters(resilient) {
		rec.Add(c.name, c.n)
	}
	rec.SetMax(obs.GaugeSimHeapPeak, float64(r.Engine.HeapPeak))
	if len(r.PerStream) == 0 {
		return
	}
	// Success/slow/error come from the stream results; shed is counted at
	// call granularity by the data plane.
	var success, slow, errs [workload.NumTiers]int
	var present [workload.NumTiers]bool
	for _, sr := range r.PerStream {
		present[sr.Tier] = true
		success[sr.Tier] += sr.Good()
		slow[sr.Tier] += sr.Violations
		errs[sr.Tier] += sr.Errors
	}
	for _, tier := range workload.Tiers() {
		if !present[tier] {
			continue
		}
		name := tier.String()
		rec.Add(obs.TierDataCounter(name, "success"), float64(success[tier]))
		rec.Add(obs.TierDataCounter(name, "slow"), float64(slow[tier]))
		rec.Add(obs.TierDataCounter(name, "error"), float64(errs[tier]))
		rec.Add(obs.TierDataCounter(name, "shed"), float64(r.Data.ShedByTier[tier]))
	}
}
