package metrics

import (
	"math"
	"sync"
	"testing"

	"erms/internal/cluster"
	"erms/internal/workload"
)

func TestKey(t *testing.T) {
	if got := Key("m"); got != "m" {
		t.Fatalf("bare key = %q", got)
	}
	if got := Key("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("labeled key = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label count should panic")
		}
	}()
	Key("m", "a")
}

func TestAppendAndRange(t *testing.T) {
	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Append("s", float64(i), float64(i)*2)
	}
	pts := st.Range("s", 3, 7)
	if len(pts) != 4 {
		t.Fatalf("range len = %d", len(pts))
	}
	if pts[0].T != 3 || pts[3].T != 6 {
		t.Fatalf("range bounds wrong: %v", pts)
	}
	if got := st.Range("missing", 0, 10); got != nil {
		t.Fatal("missing series should be nil")
	}
}

// TestOutOfOrderAppend is the regression test for the Range/Append mismatch:
// Append used to accept out-of-order points verbatim while Range's binary
// search assumed sorted timestamps, silently truncating or misplacing
// windows. Append now inserts late points in timestamp order.
func TestOutOfOrderAppend(t *testing.T) {
	st := NewStore()
	// Arrival order deliberately scrambled.
	for _, p := range []Point{{T: 5, V: 50}, {T: 1, V: 10}, {T: 3, V: 30}, {T: 2, V: 20}, {T: 4, V: 40}} {
		st.Append("s", p.T, p.V)
	}
	pts := st.Range("s", 0, 10)
	if len(pts) != 5 {
		t.Fatalf("range len = %d, want 5", len(pts))
	}
	for i, p := range pts {
		want := float64(i + 1)
		if p.T != want || p.V != want*10 {
			t.Fatalf("point %d = %+v, want {T:%v V:%v}", i, p, want, want*10)
		}
	}
	// Half-open sub-windows see exactly the points in [t0, t1).
	if got := st.Range("s", 2, 4); len(got) != 2 || got[0].T != 2 || got[1].T != 3 {
		t.Fatalf("sub-range = %v", got)
	}
	// Aggregates over a window of a scrambled series are correct too.
	if m, ok := st.MeanInRange("s", 1, 4); !ok || m != 20 {
		t.Fatalf("mean = %v ok=%v, want 20", m, ok)
	}
	if q, ok := st.QuantileInRange("s", 1.0, 0, 10); !ok || q != 50 {
		t.Fatalf("quantile = %v ok=%v, want 50", q, ok)
	}
	// Latest reports the greatest timestamp, not the last arrival.
	st.Append("s", 0.5, 5)
	if p, ok := st.Latest("s"); !ok || p.T != 5 || p.V != 50 {
		t.Fatalf("latest after late point = %+v ok=%v", p, ok)
	}
}

// TestAppendEqualTimestampsStable pins the tie rule: equal-timestamp points
// keep arrival order, and Latest returns the most recently appended of them.
func TestAppendEqualTimestampsStable(t *testing.T) {
	st := NewStore()
	st.Append("s", 1, 1)
	st.Append("s", 2, 2)
	st.Append("s", 2, 3)
	st.Append("s", 1, 4) // late duplicate timestamp: lands after the first T=1
	pts := st.Range("s", 0, 10)
	wantV := []float64{1, 4, 2, 3}
	if len(pts) != len(wantV) {
		t.Fatalf("len = %d, want %d", len(pts), len(wantV))
	}
	for i, p := range pts {
		if p.V != wantV[i] {
			t.Fatalf("order = %v, want values %v", pts, wantV)
		}
	}
	if p, _ := st.Latest("s"); p.T != 2 || p.V != 3 {
		t.Fatalf("latest = %+v, want {T:2 V:3}", p)
	}
}

func TestLatest(t *testing.T) {
	st := NewStore()
	if _, ok := st.Latest("s"); ok {
		t.Fatal("latest on empty store")
	}
	st.Append("s", 1, 10)
	st.Append("s", 2, 20)
	p, ok := st.Latest("s")
	if !ok || p.V != 20 || p.T != 2 {
		t.Fatalf("latest = %+v ok=%v", p, ok)
	}
}

func TestAggregates(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Append("s", float64(i), float64(i))
	}
	m, ok := st.MeanInRange("s", 0, 100)
	if !ok || math.Abs(m-49.5) > 1e-9 {
		t.Fatalf("mean = %v ok=%v", m, ok)
	}
	q, ok := st.QuantileInRange("s", 0.5, 0, 100)
	if !ok || math.Abs(q-49.5) > 1e-9 {
		t.Fatalf("median = %v", q)
	}
	if _, ok := st.MeanInRange("s", 200, 300); ok {
		t.Fatal("empty window should report !ok")
	}
}

func TestNamesSorted(t *testing.T) {
	st := NewStore()
	st.Append("b", 0, 1)
	st.Append("a", 0, 1)
	names := st.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestConcurrentAppend(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				st.Append(Key("s", "g", string(rune('0'+g))), float64(i), 1)
			}
		}(g)
	}
	wg.Wait()
	if len(st.Names()) != 8 {
		t.Fatalf("series count = %d", len(st.Names()))
	}
	for _, n := range st.Names() {
		if got := len(st.Range(n, 0, 1e9)); got != 1000 {
			t.Fatalf("series %s has %d points", n, got)
		}
	}
}

func TestCollectCluster(t *testing.T) {
	cl := cluster.New(2, cluster.HostSpec{Cores: 10, MemGB: 10})
	cl.SetBackground(0, workload.Interference{CPU: 0.5, Mem: 0.25})
	if _, err := cl.Place(cluster.PaperContainer("frontend"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Place(cluster.PaperContainer("frontend"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Place(cluster.PaperContainer("storage"), 1); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	CollectCluster(st, cl, 5)

	p, ok := st.Latest(Key(MetricHostCPU, "host", "0"))
	if !ok || p.V < 0.5 {
		t.Fatalf("host 0 cpu = %+v", p)
	}
	// frontend runs on both hosts: its utilization is the average.
	fcpu, ok := st.Latest(Key(MetricMSCPU, "ms", "frontend"))
	if !ok {
		t.Fatal("no frontend cpu series")
	}
	h0 := cl.Host(0).CPUUtil()
	h1 := cl.Host(1).CPUUtil()
	if math.Abs(fcpu.V-(h0+h1)/2) > 1e-9 {
		t.Fatalf("frontend cpu = %v, want %v", fcpu.V, (h0+h1)/2)
	}
	cnt, ok := st.Latest(Key(MetricMSCount, "ms", "frontend"))
	if !ok || cnt.V != 2 {
		t.Fatalf("frontend containers = %+v", cnt)
	}
	scount, _ := st.Latest(Key(MetricMSCount, "ms", "storage"))
	if scount.V != 1 {
		t.Fatalf("storage containers = %v", scount.V)
	}

	// A second scrape at the same time replaces the first one's values; a
	// later scrape adds a point.
	if _, err := cl.Place(cluster.PaperContainer("storage"), 0); err != nil {
		t.Fatal(err)
	}
	CollectCluster(st, cl, 5)
	if pts := st.Range(Key(MetricMSCount, "ms", "storage"), 0, 10); len(pts) != 1 || pts[0] != (Point{T: 5, V: 2}) {
		t.Fatalf("storage containers after re-scrape = %v, want one point {5 2}", pts)
	}
	if pts := st.Range(Key(MetricHostMem, "host", "0"), 0, 10); len(pts) != 1 || pts[0].V != cl.Host(0).MemUtil() {
		t.Fatalf("host 0 mem after re-scrape = %v, want one point at %v", pts, cl.Host(0).MemUtil())
	}
	CollectCluster(st, cl, 6)
	if pts := st.Range(Key(MetricMSCount, "ms", "frontend"), 0, 10); len(pts) != 2 {
		t.Fatalf("frontend containers after a later scrape = %v, want two points", pts)
	}
}
