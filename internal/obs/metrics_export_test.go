package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// allCounterNames is every erms.* counter and gauge constant the control
// plane records. The export test below is the drift gate: a constant added
// to obs.go without landing here fails the completeness check, and a
// constant that stops rendering on /metrics (bad characters, PromName
// collision) fails the export check.
var allCounterNames = []string{
	CtrWindows, CtrRetries, CtrBackoffMin, CtrDegradedWindows,
	CtrOutageWindows, CtrObsGapWindows, CtrScaleUps, CtrScaleDowns,
	CtrRepaired, GaugeContainers,
	CtrPlans, CtrApplies, CtrApplyRollbacks,
	CtrPlanTemplateHits, CtrPlanTemplateCompiles, CtrPlanTemplateInvalidations,
	CtrPlanSkipped, CtrPlanDirty, CtrPlanShards,
	CtrDriftWindows, CtrDriftDetections, CtrModelSwaps, GaugeDriftScore,
	CtrRolloutStarted, CtrRolloutPromoted, CtrRolloutRolledBack,
	CtrRolloutSuperseded, GaugeGeneration,
	CtrSimEvents, CtrSimJobsAlloc, CtrSimJobsRecycled, GaugeSimHeapPeak,
	CtrSimPartitions, CtrSimFluidContainers, CtrSimExactContainers,
	CtrDataAttempts, CtrDataTimeouts, CtrDataRetries,
	CtrDataRetryBudgetExhausted, CtrDataBreakerOpens,
	CtrDataBreakerShortCircuits, CtrDataShed, CtrDataCrashFailures,
	CtrDataDeadlineSkips, CtrDataUnavailable, CtrDataErrors,
	CtrChaosHostsFailed, CtrChaosHostsRecovered, CtrChaosSpikes,
	CtrChaosCrashes, CtrChaosOpFaults, CtrChaosObsGaps,
}

// TestAllCountersExportOnMetrics sets every counter constant to a unique
// value and asserts each renders on /metrics under its sanitized Prometheus
// name with that value, one line per counter and nothing else — the
// counter-name contract between the recording side (core, reconciler,
// chaos, sim) and the scrape surface.
func TestAllCountersExportOnMetrics(t *testing.T) {
	// Guard against two constants silently merging into one series.
	seen := make(map[string]string, len(allCounterNames))
	for _, name := range allCounterNames {
		pn := PromName(name)
		if prev, dup := seen[pn]; dup {
			t.Fatalf("constants %q and %q collide on prom name %q", prev, name, pn)
		}
		seen[pn] = name
	}

	r := New(nil)
	for i, name := range allCounterNames {
		r.Set(name, float64(i+1))
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	if lines := strings.Count(body, "\n"); lines != len(allCounterNames) || !strings.HasSuffix(body, "\n") {
		t.Errorf("/metrics has %d lines, want one per counter set (%d):\n%s", lines, len(allCounterNames), body)
	}
	for i, name := range allCounterNames {
		want := PromName(name) + " " + itoa(i+1)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q (constant %q)", want, name)
		}
	}
	// The new planner counters must keep their documented scrape names.
	for _, want := range []string{
		"erms_self_plan_skipped_total",
		"erms_self_plan_dirty_total",
		"erms_self_plan_shards_total",
		"erms_self_plan_template_hits_total",
		"erms_self_plan_template_compiles_total",
		"erms_self_plan_template_invalidations_total",
		"erms_self_drift_windows_total",
		"erms_self_drift_detected_total",
		"erms_self_model_swaps_total",
		"erms_self_drift_score_max",
		"erms_self_rollout_started_total",
		"erms_self_rollout_promoted_total",
		"erms_self_rollout_rolled_back_total",
		"erms_self_rollout_superseded_total",
		"erms_self_spec_generation",
		"erms_self_sim_partitions_total",
		"erms_self_sim_fluid_containers_total",
		"erms_self_sim_exact_containers_total",
	} {
		if !strings.Contains(body, want+" ") {
			t.Errorf("/metrics missing documented series %q", want)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
