package erms

import (
	"testing"
)

func hotelRates(rate float64) map[string]float64 {
	return map[string]float64{"search": rate, "recommend": rate, "reserve": rate, "login": rate}
}

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSystem(HotelReservation())
	if err != nil {
		t.Fatal(err)
	}
	sys.UseAnalyticModels()
	plan, err := sys.Plan(hotelRates(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalContainers() <= 0 {
		t.Fatal("empty plan")
	}
	res, err := sys.Evaluate(plan, hotelRates(5_000), 1.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for svc, v := range res.Violations {
		if v > 0.05 {
			t.Fatalf("%s violates %.1f%%", svc, v*100)
		}
	}
	if sys.ctrl.Orch.TotalReplicas() != plan.TotalContainers() {
		t.Fatal("deployment mismatch")
	}
}

func TestOptions(t *testing.T) {
	sys, err := NewSystem(SocialNetwork(),
		WithHosts(8), WithScheme(SchemeFCFS))
	if err != nil {
		t.Fatal(err)
	}
	sys.UseAnalyticModels()
	plan, err := sys.Plan(map[string]float64{
		"compose-post": 5_000, "home-timeline": 5_000, "user-timeline": 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != SchemeFCFS {
		t.Fatalf("scheme = %v", plan.Scheme)
	}
}

func TestAppsConstructors(t *testing.T) {
	for _, app := range []*App{SocialNetwork(), HotelReservation(),
		Alibaba(AlibabaConfig{Seed: 1, Services: 5, MeanGraphSize: 8})} {
		if err := app.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
}

func TestSetBackground(t *testing.T) {
	sys, err := NewSystem(HotelReservation(), WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetBackground(1, 0.4, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetBackground(9, 0.4, 0.3); err == nil {
		t.Fatal("bad host accepted")
	}
}
