package persist

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/multiplex"
	"erms/internal/scaling"
	"erms/internal/workload"
)

func TestAppRoundTrip(t *testing.T) {
	for _, app := range []*apps.App{apps.HotelReservation(), apps.SocialNetwork(), apps.MediaService()} {
		var buf bytes.Buffer
		if err := SaveApp(&buf, app); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		loaded, err := LoadApp(&buf)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if loaded.Name != app.Name {
			t.Fatalf("name %q != %q", loaded.Name, app.Name)
		}
		if len(loaded.Microservices()) != len(app.Microservices()) {
			t.Fatalf("%s: microservices %d != %d", app.Name, len(loaded.Microservices()), len(app.Microservices()))
		}
		if len(loaded.Shared()) != len(app.Shared()) {
			t.Fatalf("%s: shared %v != %v", app.Name, loaded.Shared(), app.Shared())
		}
		// Graph structure preserved exactly: same node count and stages.
		for i, g := range app.Graphs {
			lg := loaded.Graphs[i]
			if lg.Len() != g.Len() {
				t.Fatalf("%s/%s: %d nodes != %d", app.Name, g.Service, lg.Len(), g.Len())
			}
			if len(lg.Root.Stages) != len(g.Root.Stages) {
				t.Fatalf("%s/%s: root stages differ", app.Name, g.Service)
			}
		}
	}
}

func TestSaveAppRejectsInvalid(t *testing.T) {
	app := apps.HotelReservation()
	delete(app.Profiles, "search")
	var buf bytes.Buffer
	if err := SaveApp(&buf, app); err == nil {
		t.Fatal("invalid app saved")
	}
}

func TestLoadAppErrors(t *testing.T) {
	if _, err := LoadApp(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadApp(strings.NewReader(`{"name":"x","graphs":[{"service":"s","root":{}}]}`)); err == nil {
		t.Fatal("rootless graph accepted")
	}
	// Valid JSON but fails app validation (no profile for the node).
	doc := `{"name":"x","graphs":[{"service":"s","root":{"microservice":"a"}}],
	 "profiles":{},"slas":{},"containers":{}}`
	if _, err := LoadApp(strings.NewReader(doc)); err == nil {
		t.Fatal("invalid app accepted")
	}
	// Valid JSON of a valid topology whose SLA is not: SaveApp/LoadApp used
	// to round-trip these, and only planning failed, far from the file.
	app := apps.HotelReservation()
	for name, sla := range map[string]workload.SLA{
		"negative threshold": {Service: "login", Threshold: -5, Percentile: 0.95},
		"zero threshold":     {Service: "login", Percentile: 0.95},
		"percentile 1.5":     {Service: "login", Threshold: 100, Percentile: 1.5},
		"another service":    {Service: "search", Threshold: 100, Percentile: 0.95},
	} {
		var saved bytes.Buffer
		if err := SaveApp(&saved, app); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		doc["slas"].(map[string]any)["login"] = sla
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadApp(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: app with SLA %+v accepted", name, sla)
		} else if !strings.Contains(err.Error(), "login") {
			t.Errorf("%s: error %q does not name the service", name, err)
		}
	}
	// A container spec filed under the wrong microservice: frontend's entry
	// describes geo's containers. Loaded, it would fail the first simulation
	// with "no containers deployed for microservice frontend".
	var saved bytes.Buffer
	if err := SaveApp(&saved, app); err != nil {
		t.Fatal(err)
	}
	var misfiled map[string]any
	if err := json.Unmarshal(saved.Bytes(), &misfiled); err != nil {
		t.Fatal(err)
	}
	containers := misfiled["containers"].(map[string]any)
	containers["frontend"] = containers["geo"]
	bad, err := json.Marshal(misfiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadApp(bytes.NewReader(bad)); err == nil {
		t.Error("app with a misfiled container spec accepted")
	} else if !strings.Contains(err.Error(), "frontend") || !strings.Contains(err.Error(), `"geo"`) {
		t.Errorf("error %q does not name both the key and the spec's microservice", err)
	}
}

func TestPlanSaveAndSummary(t *testing.T) {
	plan := &multiplex.Plan{
		Scheme:     multiplex.SchemePriority,
		Containers: map[string]int{"a": 2, "b": 3},
		Ranks:      map[string]map[string]int{"a": {"svc1": 0}},
		PerService: map[string]*scaling.Allocation{
			"svc1": {Targets: map[string]float64{"a": 10, "b": 20}},
		},
	}
	var buf bytes.Buffer
	if err := SavePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"scheme": "priority"`, `"total_containers": 5`, `"svc1"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan JSON missing %q:\n%s", want, out)
		}
	}
}
