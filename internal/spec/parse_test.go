package spec

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"erms/internal/workload"
)

const minimalYAML = `
version: 1
app:
  kind: hotel
run:
  duration_min: 10
cohorts:
  - name: web
    service: search
    tier: standard
    arrival:
      kind: static
      rate: 80
`

const minimalJSON = `{
  "version": 1,
  "app": {"kind": "hotel"},
  "run": {"duration_min": 10},
  "cohorts": [
    {"name": "web", "service": "search", "tier": "standard",
     "arrival": {"kind": "static", "rate": 80}}
  ]
}`

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(minimalYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "spec" || s.Seed != 1 || s.TimeScale != 1 {
		t.Fatalf("defaults wrong: name=%q seed=%d time_scale=%g", s.Name, s.Seed, s.TimeScale)
	}
	if s.Run.WindowMin != 10 || s.Run.Hosts != 40 || s.Run.Scheme != "priority" {
		t.Fatalf("run defaults wrong: %+v", s.Run)
	}
	if s.App.Seed != 1 {
		t.Fatalf("app seed should default to spec seed, got %d", s.App.Seed)
	}
	if s.Cohorts[0].Tier != workload.TierStandard {
		t.Fatalf("tier = %v", s.Cohorts[0].Tier)
	}
}

func TestParseJSONEquivalence(t *testing.T) {
	fromYAML, err := Parse([]byte(minimalYAML))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse([]byte(minimalJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("YAML and JSON decode differently:\n yaml %+v\n json %+v", fromYAML, fromJSON)
	}
}

// replace builds a spec document from the minimal one with one line swapped,
// keeping the error cases readable.
func replace(old, new string) []byte {
	return []byte(strings.Replace(minimalYAML, old, new, 1))
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		{"empty", []byte("  \n"), "empty document"},
		{"unknown top field", append([]byte(minimalYAML), []byte("bogus: 1\n")...), `unknown field "bogus"`},
		{"unknown nested field", replace("kind: hotel", "kind: hotel\n  color: red"), `unknown field "color" in app`},
		{"bad version", replace("version: 1", "version: 2"), "version must be 1"},
		{"missing app", []byte("version: 1\nrun:\n  duration_min: 5\ncohorts:\n  - name: a\n    service: s\n    tier: batch\n    arrival:\n      kind: static\n"), "app is required"},
		{"bad kind", replace("kind: hotel", "kind: shop"), `app.kind "shop" unknown`},
		{"bad tier", replace("tier: standard", "tier: gold"), "tier"},
		{"negative rate", replace("rate: 80", "rate: -3"), "rate must be >= 0"},
		{"nan rate", replace("rate: 80", "rate: nan"), "finite number"},
		{"inf rate", replace("rate: 80", "rate: 1e999"), "finite number"},
		{"string rate", replace("rate: 80", "rate: fast"), "must be a number"},
		{"no cohorts", []byte("version: 1\napp:\n  kind: hotel\nrun:\n  duration_min: 5\n"), "at least one cohort"},
		{"dup cohort", append([]byte(minimalYAML), []byte("  - name: web\n    service: search\n    tier: batch\n    arrival:\n      kind: static\n      rate: 1\n")...), "duplicate cohort"},
		{"bad scheme", replace("duration_min: 10", "duration_min: 10\n  scheme: lifo"), `scheme "lifo" unknown`},
		{"warmup too long", replace("duration_min: 10", "duration_min: 10\n  warmup_min: 10"), "warmup_min"},
		{"seed negative", replace("version: 1", "version: 1\nseed: -4"), "non-negative integer"},
		{"mixed arrival", replace("rate: 80", "rate: 80\n      base: 2"), `accepts only rate`},
		{"json unknown", []byte(strings.Replace(minimalJSON, `"version": 1,`, `"version": 1, "bogus": true,`, 1)), `unknown field "bogus"`},
		{"json trailing", []byte(`{"version": 1}{}`), "trailing content"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got none", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestPhaseValidation(t *testing.T) {
	base := minimalYAML + "phases:\n"
	cases := []struct {
		name, phase, want string
	}{
		{"bad kind", "  - kind: surge\n    start_min: 0\n    duration_min: 2\n", "kind"},
		{"no factor", "  - kind: flash_crowd\n    start_min: 0\n    duration_min: 2\n", "factor is required"},
		{"past end", "  - kind: flash_crowd\n    start_min: 9\n    duration_min: 5\n    factor: 2\n", "past run.duration_min"},
		{"ramp too long", "  - kind: flash_crowd\n    start_min: 0\n    duration_min: 2\n    ramp_min: 1.5\n    factor: 2\n", "ramp_min"},
		{"unknown cohort", "  - kind: drain\n    start_min: 0\n    duration_min: 2\n    cohorts: [nobody]\n", `"nobody" does not name a cohort`},
		{"failover self", "  - kind: failover\n    start_min: 0\n    duration_min: 2\n    from: web\n    to: web\n    fraction: 0.5\n", "different cohorts"},
		{"failover no fraction", "  - kind: failover\n    start_min: 0\n    duration_min: 2\n    from: web\n    to: web2\n", ""},
		{"drain bad residual", "  - kind: drain\n    start_min: 0\n    duration_min: 2\n    factor: 1.5\n", "residual"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(base + c.phase))
			if err == nil {
				t.Fatalf("expected error, got none")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseExampleSpecs(t *testing.T) {
	for _, rel := range []string{
		"../../examples/quickstart/quickstart.yaml",
		"../../examples/specs/flashcrowd.yaml",
		"../../examples/specs/failover.yaml",
		"../../examples/specs/chaos.yaml",
		"../../examples/specs/drift.yaml",
	} {
		s, err := ParseFile(filepath.FromSlash(rel))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		if _, err := s.Compile(); err != nil {
			t.Fatalf("%s: compile: %v", rel, err)
		}
	}
}
