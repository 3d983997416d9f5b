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
	// frontend's entry describes geo's containers: the simulator would
	// deploy none for frontend.
	f := HotelReservation()
	f.Containers["frontend"] = f.Containers["geo"]
	if err := f.Validate(); err == nil {
		t.Fatal("misfiled container spec accepted")
	} else if !strings.Contains(err.Error(), "frontend") || !strings.Contains(err.Error(), `"geo"`) {
		t.Fatalf("error %q does not name both the key and the spec's microservice", err)
	}
	for name, sla := range map[string]workload.SLA{
		"negative threshold": {Service: "login", Threshold: -5, Percentile: 0.95},
		"zero threshold":     {Service: "login", Percentile: 0.95},
		"percentile 1.5":     {Service: "login", Threshold: 200, Percentile: 1.5},
		"another service":    {Service: "search", Threshold: 200, Percentile: 0.95},
	} {
		e := HotelReservation()
		e.SLAs["login"] = sla
		if err := e.Validate(); err == nil {
			t.Errorf("%s: SLA %+v accepted", name, sla)
		} else if !strings.Contains(err.Error(), "login") {
			t.Errorf("%s: error %q does not name the service", name, err)
		}
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

// topologyStats summarizes an application's dependency-graph shape — the
// statistics the paper's companion trace study ([26]) reports for production
// graphs, and the §6.1 counts validateAgainstPaper holds the built-in apps to.
type topologyStats struct {
	Services, Microservices, Shared int
	// Nodes is the total call-tree positions across services.
	Nodes int
	// MeanGraphSize / MaxGraphSize are per-service node counts.
	MeanGraphSize float64
	MaxGraphSize  int
	// MaxDepth is the longest root-to-leaf call chain, in nodes.
	MaxDepth int
	// MaxFanOut is the widest parallel stage.
	MaxFanOut int
	// MaxSharingDegree is the largest number of services sharing one
	// microservice.
	MaxSharingDegree int
}

func statsOf(a *App) topologyStats {
	st := topologyStats{
		Services:      len(a.Graphs),
		Microservices: len(a.Microservices()),
		Shared:        len(a.Shared()),
	}
	var depth func(n *graph.Node) int
	depth = func(n *graph.Node) int {
		best := 0
		for _, stage := range n.Stages {
			for _, c := range stage {
				best = max(best, depth(c))
			}
			st.MaxFanOut = max(st.MaxFanOut, len(stage))
		}
		return best + 1
	}
	for _, g := range a.Graphs {
		st.Nodes += g.Len()
		st.MaxGraphSize = max(st.MaxGraphSize, g.Len())
		st.MaxDepth = max(st.MaxDepth, depth(g.Root))
	}
	if st.Services > 0 {
		st.MeanGraphSize = float64(st.Nodes) / float64(st.Services)
	}
	for _, deg := range a.SharingDegree() {
		st.MaxSharingDegree = max(st.MaxSharingDegree, deg)
	}
	return st
}

func TestTopologyStats(t *testing.T) {
	st := statsOf(HotelReservation())
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
}

// TestValidateAgainstPaper checks the §6.1 application shapes: the
// DeathStarBench-equivalent apps carry the published microservice, service
// and shared-microservice counts.
func TestValidateAgainstPaper(t *testing.T) {
	for _, c := range []struct {
		app                             *App
		microservices, services, shared int
	}{
		{SocialNetwork(), 36, 3, 3},
		{MediaService(), 38, 1, 0},
		{HotelReservation(), 15, 4, 3},
	} {
		st := statsOf(c.app)
		if st.Microservices != c.microservices || st.Services != c.services || st.Shared != c.shared {
			t.Errorf("%s shape (%d µs, %d services, %d shared) != paper (%d, %d, %d)",
				c.app.Name, st.Microservices, st.Services, st.Shared, c.microservices, c.services, c.shared)
		}
	}
}
