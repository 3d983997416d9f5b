package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a clock that advances stepMs per reading.
func fakeClock(stepMs float64) func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(float64(n) * stepMs * float64(time.Millisecond)))
		n++
		return t
	}
}

func newTestRecorder(stepMs float64) *Recorder {
	r := New(nil)
	r.now = fakeClock(stepMs)
	r.epoch = r.now()
	return r
}

func TestCountersAndGauges(t *testing.T) {
	r := New(nil)
	r.Add(CtrRetries, 2)
	r.Inc(CtrRetries)
	r.Set(GaugeContainers, 40)
	r.Set(GaugeContainers, 38)
	r.SetMax(GaugeSimHeapPeak, 10)
	r.SetMax(GaugeSimHeapPeak, 7)
	if got := r.Value(CtrRetries); got != 3 {
		t.Errorf("retries = %v, want 3", got)
	}
	if got := r.Value(GaugeContainers); got != 38 {
		t.Errorf("gauge = %v, want last Set to win", got)
	}
	if got := r.Value(GaugeSimHeapPeak); got != 10 {
		t.Errorf("SetMax = %v, want 10", got)
	}
	if got := r.Value("erms.self.never_touched"); got != 0 {
		t.Errorf("absent counter = %v, want 0", got)
	}
}

func TestSpansRecordWindowAndDuration(t *testing.T) {
	r := newTestRecorder(5) // every clock read advances 5ms
	sp := r.StartSpan(PhasePlan, 2)
	if d := sp.End(); d != 5 {
		t.Fatalf("span duration = %v, want 5ms from the fake clock", d)
	}
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	got := spans[0]
	if got.Name != PhasePlan || got.Window != 2 || got.DurMs != 5 {
		t.Errorf("span = %+v", got)
	}
}

func TestSpanRingEvictsOldest(t *testing.T) {
	r := newTestRecorder(1)
	r.spanCap = 4
	for i := 0; i < 6; i++ {
		r.StartSpan(PhaseApply, i).End()
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want cap 4", len(spans))
	}
	for i, sp := range spans {
		if want := i + 2; sp.Window != want {
			t.Errorf("span %d window = %d, want %d (oldest first)", i, sp.Window, want)
		}
	}
	if r.DroppedSpans() != 2 {
		t.Errorf("dropped = %d, want 2", r.DroppedSpans())
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan(PhasePlan, 0)
	if d := sp.End(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	r.Add(CtrRetries, 1)
	r.Inc(CtrRetries)
	r.Set(GaugeContainers, 1)
	r.SetMax(GaugeContainers, 2)
	if r.Value(CtrRetries) != 0 || r.Counters() != nil || r.Spans() != nil {
		t.Error("nil recorder retained state")
	}
	if r.DroppedSpans() != 0 {
		t.Error("nil recorder accessors not inert")
	}
}

// TestDisabledRecorderZeroAlloc is the overhead gate of the self-telemetry
// layer: with no recorder configured, every instrumented call site must cost
// zero heap allocations, so the disabled control loop's hot paths are
// byte-for-byte as cheap as before the layer existed.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(PhasePlan, 3)
		r.Add(CtrRetries, 1)
		r.Inc(CtrPlans)
		r.Set(GaugeContainers, 42)
		r.SetMax(GaugeSimHeapPeak, 7)
		_ = r.Value(CtrRetries)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %v per instrumented window, want 0", allocs)
	}
}

// TestEnabledCounterSteadyStateZeroAlloc pins the enabled counter fast path:
// once a counter exists, further Adds must not allocate (map writes of
// existing keys are allocation-free), keeping per-event instrumentation
// (kube emit, chaos injection) cheap even when enabled.
func TestEnabledCounterSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	r := New(nil)
	r.Add(CtrRetries, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(CtrRetries, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state enabled Add allocates %v, want 0", allocs)
	}
}

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"erms.self.retries_total", "erms_self_retries_total"},
		{"9lives", "_9lives"},
		{"a:b-c", "a:b_c"},
	}
	for _, c := range cases {
		if got := PromName(c.in); got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := newTestRecorder(2)
	r.Add(CtrRetries, 4)
	r.StartSpan(PhasePlan, 0).End()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
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
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return sb.String()
	}

	if body := get("/metrics"); body != "erms_self_retries_total 4\n" {
		t.Errorf("/metrics = %q, want the one counter", body)
	}

	var payload struct {
		Spans   []SpanRecord `json:"spans"`
		Dropped int          `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(get("/spans")), &payload); err != nil {
		t.Fatalf("/spans not JSON: %v", err)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].Name != PhasePlan {
		t.Errorf("/spans payload = %+v", payload)
	}

	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if body := get("/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index page = %q", body)
	}
}

func TestKubeEventCounter(t *testing.T) {
	if got := KubeEventCounter("scale-up"); got != "erms.self.kube_scale_ups_total" {
		t.Errorf("scale-up -> %q", got)
	}
	if got := KubeEventCounter("martian"); got != "erms.self.kube_events_unknown_total" {
		t.Errorf("unknown -> %q", got)
	}
}
