package apps

import (
	"fmt"
	"testing"
)

func TestScaleTopologyExactShape(t *testing.T) {
	cases := []ScaleConfig{
		{Seed: 1, Services: 20, MicroservicesPerService: 10, SharingDegree: 4},
		{Seed: 2, Services: 30, MicroservicesPerService: 7, SharingDegree: 5, MaxStageWidth: 2},
		{Seed: 3, Services: 8, MicroservicesPerService: 12, SharingDegree: 8}, // degree == services
		{Seed: 4, Services: 10, MicroservicesPerService: 5, SharingDegree: 3}, // remainder pool entry
	}
	for _, cfg := range cases {
		app := ScaleTopology(cfg)
		if err := app.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(app.Graphs) != cfg.Services {
			t.Fatalf("%s: %d services, want %d", app.Name, len(app.Graphs), cfg.Services)
		}
		for _, g := range app.Graphs {
			if g.Len() != cfg.MicroservicesPerService {
				t.Fatalf("%s/%s: %d nodes, want %d", app.Name, g.Service, g.Len(), cfg.MicroservicesPerService)
			}
		}
		slots := cfg.Services * (cfg.MicroservicesPerService - 1)
		wantPool := (slots + cfg.SharingDegree - 1) / cfg.SharingDegree
		deg := app.SharingDegree()
		var poolSeen, entries int
		for ms, d := range deg {
			if len(ms) >= 5 && ms[:5] == "pool-" {
				poolSeen++
				// Every pool microservice is shared by exactly SharingDegree
				// services, except the final remainder entry which may carry
				// fewer (but at least one).
				if d != cfg.SharingDegree {
					if rem := slots % cfg.SharingDegree; rem != 0 && d == rem && ms == deg_lastPool(wantPool) {
						continue
					}
					t.Fatalf("%s: %s shared by %d services, want %d", app.Name, ms, d, cfg.SharingDegree)
				}
			} else {
				entries++
				if d != 1 {
					t.Fatalf("%s: entry %s shared by %d services", app.Name, ms, d)
				}
			}
		}
		if poolSeen != wantPool {
			t.Fatalf("%s: %d pool microservices, want %d", app.Name, poolSeen, wantPool)
		}
		if entries != cfg.Services {
			t.Fatalf("%s: %d private entries, want %d", app.Name, entries, cfg.Services)
		}
	}
}

// deg_lastPool names the final (remainder-absorbing) pool microservice.
func deg_lastPool(poolSize int) string {
	return fmt.Sprintf("pool-%05d", poolSize-1)
}

func TestScaleTopologyDeterministic(t *testing.T) {
	cfg := ScaleConfig{Seed: 7, Services: 12, MicroservicesPerService: 9, SharingDegree: 4}
	a, b := ScaleTopology(cfg), ScaleTopology(cfg)
	if a.Name != b.Name || len(a.Graphs) != len(b.Graphs) {
		t.Fatal("shape diverged between identical configs")
	}
	for i := range a.Graphs {
		if a.Graphs[i].DOT() != b.Graphs[i].DOT() {
			t.Fatalf("graph %d structure diverged", i)
		}
	}
	for ms, p := range a.Profiles {
		if q, ok := b.Profiles[ms]; !ok || p != q {
			t.Fatalf("profile %s diverged", ms)
		}
	}
	for svc, s := range a.SLAs {
		if b.SLAs[svc] != s {
			t.Fatalf("SLA %s diverged", svc)
		}
	}
}

func TestScaleTopologyDefaults(t *testing.T) {
	app := ScaleTopology(ScaleConfig{Seed: 1})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(app.Graphs) != 100 {
		t.Fatalf("default services = %d, want 100", len(app.Graphs))
	}
	if app.Graphs[0].Len() != 50 {
		t.Fatalf("default graph size = %d, want 50", app.Graphs[0].Len())
	}
}
