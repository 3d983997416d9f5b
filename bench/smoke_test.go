package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"erms/internal/apps"
)

// benchmarkFile is the shape of BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"` // no bounds
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables the
// program emits from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n file  %+v\n table %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n file  %+v\n table %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d specs", len(f.Workloads), len(specs))
	}
	for i, s := range specs {
		if f.Workloads[i].Name != s.Name || f.Workloads[i].Why != s.Why {
			t.Errorf("workload %d is %+v, the spec has %q: %q", i, f.Workloads[i], s.Name, s.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// shrink cuts a spec down to a couple of seconds: small topologies, low
// rates, cycles of two windows.
func shrink(s spec) spec {
	s.Cycle, s.SetupReps = 2, 2
	s.Rate, s.Peak = s.Rate/10, s.Peak/10
	switch s.Scale.Services {
	case 1000:
		s.Scale = apps.ScaleConfig{Seed: 7, Services: 40, MicroservicesPerService: 10, SharingDegree: 4}
		s.Hosts = 40
	case 100:
		s.Scale = apps.ScaleConfig{Seed: 7, Services: 16, MicroservicesPerService: 6, SharingDegree: 4}
		s.Hosts = 16
	}
	return s
}

// TestSmoke runs every workload, shrunk, in both modes and checks that each
// run is correct, reports exactly the metrics BENCHMARK.json names, each
// with its unit, and that tracing leaves the windows' decisions unchanged.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, full := range specs {
		s := shrink(full)
		t.Run(s.Name, func(t *testing.T) {
			plain, err := run(s, 1, 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			dump := t.TempDir() + "/spans.json"
			traced, err := run(s, 1, 0, true, dump)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{plain, traced} {
				for _, p := range o.Problems {
					t.Errorf("check failed: %s", p)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted != minCycles*s.Cycle {
					t.Errorf("correct %v, attempted %d, failed %d", o.Correct, o.Attempted, o.Failed)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("tracing changed the digest: %s untraced, %s traced", plain.Digest, traced.Digest)
			}

			if len(plain.Metrics) != len(f.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json names %d", len(plain.Metrics), len(f.EndToEnd))
			}
			for _, d := range f.EndToEnd {
				m, ok := plain.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s: reported %v as %+v, want unit %s", d.Name, ok, m, d.Unit)
				}
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is zero", d.Name)
				}
			}
			if len(traced.Metrics) != len(f.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json names %d", len(traced.Metrics), len(f.PerLayer))
			}
			for _, d := range f.PerLayer {
				if m, ok := traced.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s: reported %v as %+v, want unit %s", d.Name, ok, m, d.Unit)
				}
			}

			data, err := os.ReadFile(dump)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			for i, sp := range spans {
				if sp.Name == "" || sp.EndNs < sp.StartNs || sp.Parent >= i || sp.Workload != s.Name ||
					(sp.Source != "bench" && sp.Source != "report") {
					t.Fatalf("span %d is malformed: %+v", i, sp)
				}
			}
		})
	}
}
