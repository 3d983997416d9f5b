package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/persist"
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
	if s.Run.WindowMin != 10 || s.Run.Hosts != 40 || s.Run.Scheme != "priority" || s.Run.Models != "analytic" {
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
		{"bad models", replace("duration_min: 10", "duration_min: 10\n  models: magic"), `run.models "magic" unknown (want analytic or profiled)`},
		{"models not string", replace("duration_min: 10", "duration_min: 10\n  models: 2"), "run.models must be a string"},
		{"app file from bytes", replace("kind: hotel", "kind: file\n  path: app.json"), `app.kind "file" opens a path, so only a spec read from a file may use it`},
		{"app path on builtin kind", replace("kind: hotel", "kind: hotel\n  path: app.json"), `app.path only applies to kind "file", not "hotel"`},
		{"services on builtin kind", replace("kind: hotel", "kind: hotel\n  services: 8"), `app.services only applies to generated topologies (alibaba, scale), not "hotel"`},
		{"alibaba services negative", replace("kind: hotel", "kind: alibaba\n  services: -1"), "app.services must be in [0, 10000]"},
		{"alibaba scale-only field", replace("kind: hotel", "kind: alibaba\n  sharing_degree: 3"), `only apply to kind "scale", not "alibaba"`},
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

// TestRunModelsParse: run.models names the latency models the loop's planner
// starts from; "profiled" is the Offline Profiler's sweep.
func TestRunModelsParse(t *testing.T) {
	for _, models := range []string{"analytic", "profiled"} {
		s, err := Parse(replace("duration_min: 10", "duration_min: 10\n  models: "+models))
		if err != nil {
			t.Fatalf("models %s: %v", models, err)
		}
		if s.Run.Models != models {
			t.Fatalf("run.models = %q, want %q", s.Run.Models, models)
		}
	}
}

// TestAppKindFile: app.kind "file" loads app.path (persist.SaveApp's format)
// relative to the spec file's directory, through persist.LoadApp and its
// validation; the same document parsed from bytes is refused before any path
// is opened.
func TestAppKindFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "apps"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeApp := func(name string, app *apps.App) {
		var buf bytes.Buffer
		if err := persist.SaveApp(&buf, app); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "apps", name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpec := func(name, app string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, replace("kind: hotel", app), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	writeApp("hotel.json", apps.HotelReservation())

	good := writeSpec("good.yaml", "kind: file\n  path: apps/hotel.json")
	s, err := ParseFile(good)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := apps.HotelReservation(); sc.App.Name != want.Name || !reflect.DeepEqual(sc.App.Microservices(), want.Microservices()) {
		t.Fatalf("loaded app %s %v, want %s %v", sc.App.Name, sc.App.Microservices(), want.Name, want.Microservices())
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), `app.kind "file" opens a path`) {
		t.Fatalf("the same document as bytes: err = %v, want the refusal", err)
	}

	if _, err := ParseFile(writeSpec("nopath.yaml", "kind: file")); err == nil || !strings.Contains(err.Error(), "app.path is required") {
		t.Fatalf("kind file without path: err = %v", err)
	}

	// A JSON app whose frontend entry describes geo's containers fails
	// persist.LoadApp's validation, which names both.
	var saved bytes.Buffer
	if err := persist.SaveApp(&saved, apps.HotelReservation()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	containers := doc["containers"].(map[string]any)
	containers["frontend"] = containers["geo"]
	misfiled, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "apps", "misfiled.json"), misfiled, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]string{
		"apps/misfiled.json": {"frontend", `"geo"`},
		"apps/missing.json":  {"app.path", "missing.json"},
	} {
		s, err := ParseFile(writeSpec("compile.yaml", "kind: file\n  path: "+path))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Compile()
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("app.path %s: compile err = %v, want it to name %s", path, err, w)
			}
		}
	}
}

// TestAlibabaServices: app.services sizes an alibaba topology exactly as
// apps.AlibabaConfig{Seed, Services} does; 0 keeps Taobao's 500 services.
func TestAlibabaServices(t *testing.T) {
	for _, services := range []int{8, 0} {
		s, err := Parse(replace("kind: hotel", fmt.Sprintf("kind: alibaba\n  seed: 3\n  services: %d", services)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.App.Build()
		if err != nil {
			t.Fatal(err)
		}
		if want := apps.Alibaba(apps.AlibabaConfig{Seed: 3, Services: services}); !reflect.DeepEqual(got, want) {
			t.Fatalf("services %d: spec-built topology differs from AlibabaConfig{Seed: 3, Services: %d}", services, services)
		}
		if n := len(got.Services()); services == 0 && n != 500 || services > 0 && n != services {
			t.Fatalf("services %d: built %d services", services, n)
		}
	}
}

// TestCompileRejectsUnknownCohortService: a cohort calling a service the app
// does not have fails compile, naming the service and listing the app's —
// a misspelled service must not silently drop its load.
func TestCompileRejectsUnknownCohortService(t *testing.T) {
	s, err := Parse(replace("service: search", "service: serach"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Compile()
	for _, want := range []string{`cohort "web": service "serach" not in app "hotel-reservation"`, "services: [search recommend reserve login]"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("compile err = %v, want it to contain %s", err, want)
		}
	}
}
