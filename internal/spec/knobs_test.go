package spec

import (
	"reflect"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/drift"
	"erms/internal/sim"
	"erms/internal/workload"
)

// TestTierShedFactors pins resilience.tier_shed_factors: an override lands
// on its tier, omitted tiers keep sim.DefaultTierShedFactors, and an unknown
// tier or a negative factor is rejected with an error naming the key.
func TestTierShedFactors(t *testing.T) {
	withDefaults := func(edit func(*[workload.NumTiers]float64)) [workload.NumTiers]float64 {
		f := sim.DefaultTierShedFactors
		edit(&f)
		return f
	}
	cases := []struct {
		name    string
		block   string
		want    [workload.NumTiers]float64
		wantErr string
	}{
		{"absent keeps the zero value sim defaults", "",
			[workload.NumTiers]float64{}, ""},
		{"override lands on its tier", "    batch: 8\n",
			withDefaults(func(f *[workload.NumTiers]float64) { f[workload.TierBatch] = 8 }), ""},
		{"omitted tiers keep the defaults", "    critical: 0.5\n    sheddable: 3\n",
			withDefaults(func(f *[workload.NumTiers]float64) {
				f[workload.TierCritical], f[workload.TierSheddable] = 0.5, 3
			}), ""},
		{"unknown tier", "    gold: 1\n", [workload.NumTiers]float64{},
			`spec: resilience.tier_shed_factors: workload: unknown SLO tier "gold" (want critical, standard, sheddable, or batch)`},
		{"negative factor", "    standard: -1\n", [workload.NumTiers]float64{},
			"spec: resilience.tier_shed_factors.standard must be >= 0, got -1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := minimalYAML + "resilience:\n  shed: true\n"
			if c.block != "" {
				doc += "  tier_shed_factors:\n" + c.block
			}
			s, err := Parse([]byte(doc))
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sc, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if got := sc.Resilience.TierShedFactors; got != c.want {
				t.Fatalf("tier shed factors = %v, want %v", got, c.want)
			}
		})
	}
}

// everyKeyYAML sets every key of the chaos, resilience, drift and generator
// app blocks to a distinct value.
const everyKeyYAML = `
version: 1
seed: 3
app:
  kind: scale
  seed: 11
  services: 4
  microservices_per_service: 6
  sharing_degree: 2
  max_stage_width: 5
run:
  duration_min: 12
  window_min: 3
  hosts: 20
resilience:
  timeout_sla_multiple: 1.5
  request_timeout_ms: 900
  attempt_timeout_ms: 120
  max_attempts: 3
  retry_budget: 0.2
  breaker_failure_rate: 0.6
  shed: true
  shed_max_wait_ms: 45
  tier_shed_factors:
    critical: 0.1
    standard: 1.2
    sheddable: 2.7
    batch: 4.5
chaos:
  seed: 21
  p_host_fail: 0.11
  down_windows: 3
  max_hosts_down: 4
  p_crash: 0.12
  crashes_per_window: 5
  p_spike: 0.13
  spike_hosts: 6
  severity_cpu: 0.14
  severity_mem: 0.15
  p_obs_gap: 0.16
  p_op_fail: 0.17
  op_failures: 7
drift:
  threshold: 0.33
  consecutive: 8
  downward: true
cohorts:
  - name: web
    service: scale-svc-00000
    tier: standard
    arrival:
      kind: static
      rate: 80
`

// TestEveryKeyLands pins that each key of the consumer-config blocks reaches
// the field the consumer reads, with its value.
func TestEveryKeyLands(t *testing.T) {
	s, err := Parse([]byte(everyKeyYAML))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}

	wantScale := apps.ScaleConfig{Seed: 11, Services: 4, MicroservicesPerService: 6, SharingDegree: 2, MaxStageWidth: 5}
	if s.App.ScaleConfig != wantScale {
		t.Errorf("app generator config = %+v, want %+v", s.App.ScaleConfig, wantScale)
	}
	if !reflect.DeepEqual(sc.App, apps.ScaleTopology(wantScale)) {
		t.Errorf("app block built a topology other than ScaleTopology(%+v)", wantScale)
	}

	wantRes := sim.Resilience{
		TimeoutSLAMultiple: 1.5,
		RequestTimeoutMs:   900,
		AttemptTimeoutMs:   120,
		MaxAttempts:        3,
		RetryBudget:        0.2,
		BreakerFailureRate: 0.6,
		Shed:               true,
		ShedMaxWaitMs:      45,
		TierShedFactors:    [workload.NumTiers]float64{0.1, 1.2, 2.7, 4.5},
	}
	if *sc.Resilience != wantRes {
		t.Errorf("resilience = %+v, want %+v", *sc.Resilience, wantRes)
	}

	sched, err := sc.ChaosSchedule(0)
	if err != nil {
		t.Fatal(err)
	}
	wantChaos := chaos.Config{
		Seed:             21,
		Windows:          4,
		WindowMin:        3,
		Hosts:            20,
		Microservices:    sc.App.Microservices(),
		PHostFail:        0.11,
		DownWindows:      3,
		MaxHostsDown:     4,
		PCrash:           0.12,
		CrashesPerWindow: 5,
		PSpike:           0.13,
		SpikeHosts:       6,
		Severity:         workload.Interference{CPU: 0.14, Mem: 0.15},
		PObsGap:          0.16,
		POpFail:          0.17,
		OpFailures:       7,
	}
	if !reflect.DeepEqual(sched.Cfg, wantChaos) {
		t.Errorf("chaos config = %+v, want %+v", sched.Cfg, wantChaos)
	}

	wantDrift := drift.Config{Threshold: 0.33, Consecutive: 8, Downward: true}
	if *s.Drift != wantDrift {
		t.Errorf("drift config = %+v, want %+v", *s.Drift, wantDrift)
	}
}

// TestValidateReportsOneError pins that a document with several bad entries
// in one map gets the same error on every parse: entries are checked in key
// order, not map order — by Validate, and on the JSON path already by the
// number conversion.
func TestValidateReportsOneError(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"app.slas", strings.Replace(minimalYAML, "kind: hotel", "kind: hotel\n  slas:\n    search: -1\n    reserve: -2", 1),
			"spec: app.slas.reserve must be in (0, 1e6] ms, got -2"},
		{"tier_shed_factors", minimalYAML + "resilience:\n  tier_shed_factors:\n    gold: 1\n    silver: 2\n",
			`spec: resilience.tier_shed_factors: workload: unknown SLO tier "gold" (want critical, standard, sheddable, or batch)`},
		{"json numbers", strings.Replace(minimalJSON, `"version": 1,`, `"version": 1,
  "resilience": {"timeout_sla_multiple": 1e999, "request_timeout_ms": 2e999, "attempt_timeout_ms": 3e999,
    "retry_budget": 4e999, "breaker_failure_rate": 5e999, "shed_max_wait_ms": 6e999},`, 1),
			`spec: invalid number "3e999"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen := map[string]int{}
			for i := 0; i < 20; i++ {
				_, err := Parse([]byte(c.doc))
				if err == nil {
					t.Fatal("parse accepted the document")
				}
				seen[err.Error()]++
			}
			if len(seen) != 1 || seen[c.want] != 20 {
				t.Fatalf("20 parses gave %v, want only %q", seen, c.want)
			}
		})
	}
}
