package apps

import (
	"math"
	"strings"
	"testing"

	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/workload"
)

func TestSocialNetworkShape(t *testing.T) {
	a := SocialNetwork()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Microservices()); got != 36 {
		t.Fatalf("unique microservices = %d, want 36 (§6.1)", got)
	}
	if got := len(a.Services()); got != 3 {
		t.Fatalf("services = %d, want 3", got)
	}
	shared := a.Shared()
	if len(shared) != 3 {
		t.Fatalf("shared microservices = %v, want 3 (§6.1)", shared)
	}
	// The shared chain is post-storage and its backends.
	want := map[string]bool{"post-storage": true, "post-storage-memcached": true, "post-storage-mongo": true}
	for _, ms := range shared {
		if !want[ms] {
			t.Fatalf("unexpected shared microservice %s", ms)
		}
	}
	// post-storage is in all three graphs.
	if a.SharingDegree()["post-storage"] != 3 {
		t.Fatalf("post-storage degree = %d", a.SharingDegree()["post-storage"])
	}
}

func TestMediaServiceShape(t *testing.T) {
	a := MediaService()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Microservices()); got != 38 {
		t.Fatalf("unique microservices = %d, want 38 (§6.1)", got)
	}
	if got := len(a.Services()); got != 1 {
		t.Fatalf("services = %d, want 1", got)
	}
	if got := a.Shared(); len(got) != 0 {
		t.Fatalf("single-service app cannot share: %v", got)
	}
}

func TestHotelReservationShape(t *testing.T) {
	a := HotelReservation()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Microservices()); got != 15 {
		t.Fatalf("unique microservices = %d, want 15 (§6.1)", got)
	}
	if got := len(a.Services()); got != 4 {
		t.Fatalf("services = %d, want 4", got)
	}
	if got := a.Shared(); len(got) != 3 {
		t.Fatalf("shared = %v, want 3 (§6.1)", got)
	}
	if a.SharingDegree()["frontend"] != 4 {
		t.Fatalf("frontend degree = %d", a.SharingDegree()["frontend"])
	}
}

func TestAppAccessors(t *testing.T) {
	a := HotelReservation()
	if a.Graph("search") == nil || a.Graph("nope") != nil {
		t.Fatal("Graph lookup broken")
	}
	for _, svc := range a.Services() {
		if err := a.SLAs[svc].Validate(); err != nil {
			t.Fatalf("SLA for %s: %v", svc, err)
		}
	}
	for _, ms := range a.Microservices() {
		if a.Containers[ms].Threads <= 0 {
			t.Fatalf("container spec missing for %s", ms)
		}
	}
}

func TestValidateDetectsProblems(t *testing.T) {
	a := HotelReservation()
	delete(a.Profiles, "search")
	if err := a.Validate(); err == nil {
		t.Fatal("missing profile accepted")
	}
	b := HotelReservation()
	delete(b.SLAs, "login")
	if err := b.Validate(); err == nil {
		t.Fatal("missing SLA accepted")
	}
	c := HotelReservation()
	delete(c.Containers, "user")
	if err := c.Validate(); err == nil {
		t.Fatal("missing container spec accepted")
	}
	d := &App{Name: "empty"}
	if err := d.Validate(); err == nil {
		t.Fatal("empty app accepted")
	}
}

// TestValidateRejectsUnusableProfiles: a profile the simulator cannot draw a
// service time from is rejected with the microservice named — including the
// NaN and +Inf base times a plain `BaseMs <= 0` comparison lets through.
func TestValidateRejectsUnusableProfiles(t *testing.T) {
	for name, p := range map[string]sim.ServiceProfile{
		"zero base":     {BaseMs: 0},
		"negative base": {BaseMs: -1, CV: 0.5},
		"NaN base":      {BaseMs: math.NaN(), CV: 0.5},
		"Inf base":      {BaseMs: math.Inf(1)},
		"NaN CV":        {BaseMs: 2, CV: math.NaN()},
		"negative CV":   {BaseMs: 2, CV: -0.5},
	} {
		a := HotelReservation()
		a.Profiles["search"] = p
		err := a.Validate()
		if err == nil {
			t.Errorf("%s: profile %+v accepted", name, p)
		} else if !strings.Contains(err.Error(), "search") {
			t.Errorf("%s: error %q does not name the microservice", name, err)
		}
	}
}

func TestAlibabaTaobaoScale(t *testing.T) {
	a := Alibaba(TaobaoConfig(1))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Services()); got != 500 {
		t.Fatalf("services = %d", got)
	}
	// Average graph size ~50.
	total := 0
	for _, g := range a.Graphs {
		total += g.Len()
	}
	avg := float64(total) / float64(len(a.Graphs))
	if avg < 35 || avg > 70 {
		t.Fatalf("average graph size = %v, want ~50", avg)
	}
	// 300+ shared microservices (§6.5).
	if got := len(a.Shared()); got < 300 {
		t.Fatalf("shared microservices = %d, want 300+", got)
	}
}

func TestAlibabaDeterministic(t *testing.T) {
	a := Alibaba(AlibabaConfig{Seed: 7, Services: 20, MeanGraphSize: 20})
	b := Alibaba(AlibabaConfig{Seed: 7, Services: 20, MeanGraphSize: 20})
	if len(a.Microservices()) != len(b.Microservices()) {
		t.Fatal("generator not deterministic")
	}
	for i, g := range a.Graphs {
		if g.Len() != b.Graphs[i].Len() {
			t.Fatalf("graph %d size differs", i)
		}
	}
	c := Alibaba(AlibabaConfig{Seed: 8, Services: 20, MeanGraphSize: 20})
	if len(a.Microservices()) == len(c.Microservices()) {
		// Sizes could coincide, but node-for-node equality should not hold;
		// compare total nodes as a cheap proxy.
		ta, tc := 0, 0
		for i := range a.Graphs {
			ta += a.Graphs[i].Len()
			tc += c.Graphs[i].Len()
		}
		if ta == tc {
			t.Fatal("different seeds produced identical apps")
		}
	}
}

func TestAlibabaSharingHeavyTail(t *testing.T) {
	// At the Fig. 2 scale (reduced), a substantial fraction of microservices
	// must be shared by >100 services.
	cfg := Fig2Config(3)
	cfg.Services = 400 // keep the test fast; threshold scales proportionally
	cfg.MeanGraphSize = 150
	cfg.PoolSize = 800
	a := Alibaba(cfg)
	deg := a.SharingDegree()
	over := 0
	for _, d := range deg {
		if d > 40 { // 10% of services, matching >100-of-1000 proportionally
			over++
		}
	}
	frac := float64(over) / float64(len(deg))
	if frac < 0.2 {
		t.Fatalf("heavy-sharing fraction = %v (%d of %d), want >= 0.2", frac, over, len(deg))
	}
}

func TestAlibabaSLAsValid(t *testing.T) {
	a := Alibaba(AlibabaConfig{Seed: 5, Services: 30, MeanGraphSize: 15})
	for svc, sla := range a.SLAs {
		if err := sla.Validate(); err != nil {
			t.Fatalf("%s: %v", svc, err)
		}
		if sla.Threshold < 100 || sla.Threshold > 300 {
			t.Fatalf("%s threshold = %v", svc, sla.Threshold)
		}
	}
}

func TestSLADefaultsAreValid(t *testing.T) {
	for _, a := range []*App{SocialNetwork(), MediaService(), HotelReservation()} {
		for svc, sla := range a.SLAs {
			if err := sla.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", a.Name, svc, err)
			}
			if sla.Percentile != 0.95 {
				t.Fatalf("%s/%s percentile = %v", a.Name, svc, sla.Percentile)
			}
		}
	}
	_ = workload.SLA{}
}

func TestTopologyStats(t *testing.T) {
	a := HotelReservation()
	st := a.Stats()
	if st.Services != 4 || st.Microservices != 15 || st.Shared != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxSharingDegree != 4 { // frontend in all four services
		t.Fatalf("max sharing = %d", st.MaxSharingDegree)
	}
	if st.MaxFanOut < 2 { // search fans out to geo+rate
		t.Fatalf("max fanout = %d", st.MaxFanOut)
	}
	if st.MeanGraphSize <= 1 || st.MaxDepth < 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty string")
	}
}

func TestReport(t *testing.T) {
	rep := SocialNetwork().Report()
	for _, want := range []string{"social-network", "compose-post", "sharing-degree histogram", "3 -> 3"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestValidateAgainstPaper(t *testing.T) {
	if err := ValidateAgainstPaper(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEdgePolicy(t *testing.T) {
	a := HotelReservation()
	// Pin one node first: the blanket application must not overwrite it.
	pinned := a.Graphs[0].Root
	pinned.SetPolicy(graph.EdgePolicy{TimeoutMs: 7})

	a.ApplyEdgePolicy(graph.EdgePolicy{TimeoutMs: 30, MaxAttempts: 2})
	if pinned.Policy.TimeoutMs != 7 {
		t.Fatalf("blanket policy overwrote a pinned edge: %+v", pinned.Policy)
	}
	for _, g := range a.Graphs {
		for _, n := range g.PreOrder() {
			if n.Policy == nil {
				t.Fatalf("%s/%s has no policy after ApplyEdgePolicy", g.Service, n.Microservice)
			}
			if n != pinned && (n.Policy.TimeoutMs != 30 || n.Policy.MaxAttempts != 2) {
				t.Fatalf("%s/%s has wrong policy: %+v", g.Service, n.Microservice, n.Policy)
			}
		}
	}
}
