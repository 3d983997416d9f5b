package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"erms/internal/workload"
)

func TestNewPaperCluster(t *testing.T) {
	cl := NewPaperCluster()
	if cl.NumHosts() != 20 {
		t.Fatalf("hosts = %d", cl.NumHosts())
	}
	if cl.TotalCores() != 640 {
		t.Fatalf("total cores = %v", cl.TotalCores())
	}
	if cl.TotalMemMB() != 20*64*1024 {
		t.Fatalf("total mem = %v", cl.TotalMemMB())
	}
}

func TestPlaceAndRemove(t *testing.T) {
	cl := New(2, PaperHost)
	spec := PaperContainer("ms-a")
	c, err := cl.Place(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Host.ID != 0 || c.Spec.Microservice != "ms-a" {
		t.Fatalf("container = %+v", c)
	}
	if cl.CountFor("ms-a") != 1 || len(cl.ContainersFor("ms-a")) != 1 {
		t.Fatal("container not tracked")
	}
	if err := cl.Remove(c.ID); err != nil {
		t.Fatal(err)
	}
	if cl.CountFor("ms-a") != 0 {
		t.Fatal("container not removed")
	}
	if err := cl.Remove(c.ID); err == nil {
		t.Fatal("double remove should error")
	}
}

func TestPlaceErrors(t *testing.T) {
	cl := New(1, HostSpec{Cores: 1, MemGB: 4})
	if _, err := cl.Place(ContainerSpec{}, 0); err == nil {
		t.Fatal("invalid spec should error")
	}
	if _, err := cl.Place(PaperContainer("x"), 9); err == nil {
		t.Fatal("bad host should error")
	}
	// Fill the host to capacity: 1 core / 0.1 = 10 containers.
	for i := 0; i < 10; i++ {
		if _, err := cl.Place(PaperContainer("x"), 0); err != nil {
			t.Fatalf("placement %d failed: %v", i, err)
		}
	}
	if _, err := cl.Place(PaperContainer("x"), 0); err == nil {
		t.Fatal("over-capacity placement should error")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	cl := New(1, HostSpec{Cores: 10, MemGB: 10})
	h := cl.Host(0)
	if h.CPUUtil() != 0 || h.MemUtil() != 0 {
		t.Fatal("fresh host should be idle")
	}
	c, err := cl.Place(ContainerSpec{Microservice: "a", CPU: 2, MemMB: 1024, Threads: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.CPUUtil(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("cpu util = %v", got)
	}
	if got := h.MemUtil(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("mem util = %v", got)
	}
	c.SetCPUUsage(5)
	if got := h.CPUUtil(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cpu util after usage update = %v", got)
	}
	c.SetCPUUsage(-3)
	if c.CPUUsage() != 0 {
		t.Fatal("negative usage should clamp to 0")
	}
}

func TestBackgroundInterference(t *testing.T) {
	cl := New(2, HostSpec{Cores: 10, MemGB: 10})
	if err := cl.SetBackground(0, workload.Interference{CPU: 0.4, Mem: 0.6}); err != nil {
		t.Fatal(err)
	}
	if cl.Host(0).CPUUtil() != 0.4 || cl.Host(0).MemUtil() != 0.6 {
		t.Fatal("background not reflected in utilization")
	}
	if math.Abs(cl.MeanCPUUtil()-0.2) > 1e-12 {
		t.Fatalf("mean cpu = %v", cl.MeanCPUUtil())
	}
	if err := cl.SetBackground(7, workload.Interference{}); err == nil {
		t.Fatal("bad host should error")
	}
	// Background reduces fit capacity.
	h := cl.Host(0)
	if got := h.CPUFree(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("cpu free = %v", got)
	}
}

func TestUtilizationCapped(t *testing.T) {
	cl := New(1, HostSpec{Cores: 1, MemGB: 1})
	cl.SetBackground(0, workload.Interference{CPU: 0.9, Mem: 0.9})
	c, err := cl.Place(ContainerSpec{Microservice: "a", CPU: 0.05, MemMB: 50, Threads: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCPUUsage(100)
	if cl.Host(0).CPUUtil() > 1 {
		t.Fatal("utilization must cap at 1")
	}
}

func TestDominantShare(t *testing.T) {
	cl := New(1, HostSpec{Cores: 10, MemGB: 1}) // 10 cores, 1024 MB
	cpuHeavy := ContainerSpec{Microservice: "a", CPU: 1, MemMB: 1, Threads: 1}
	if got := cl.DominantShare(cpuHeavy); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("cpu-dominant share = %v", got)
	}
	memHeavy := ContainerSpec{Microservice: "b", CPU: 0.01, MemMB: 512, Threads: 1}
	if got := cl.DominantShare(memHeavy); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mem-dominant share = %v", got)
	}
}

func TestImbalance(t *testing.T) {
	cl := New(2, HostSpec{Cores: 10, MemGB: 10})
	if cl.Imbalance() != 0 {
		t.Fatal("balanced cluster should have zero imbalance")
	}
	cl.SetBackground(0, workload.Interference{CPU: 0.8})
	if cl.Imbalance() <= 0 {
		t.Fatal("imbalanced cluster should have positive imbalance")
	}
}

func TestReset(t *testing.T) {
	cl := New(2, PaperHost)
	cl.SetBackground(1, workload.Interference{CPU: 0.3})
	cl.Place(PaperContainer("a"), 0)
	cl.Place(PaperContainer("b"), 1)
	cl.Reset()
	if len(cl.Containers()) != 0 {
		t.Fatal("reset left containers")
	}
	if cl.Host(1).Background.CPU != 0.3 {
		t.Fatal("reset should keep background levels")
	}
	// Hosts forget their containers too: nothing listed, utilization back to
	// the background, free capacity back to what the background leaves.
	for _, h := range cl.Hosts() {
		if n := len(h.Containers()); n != 0 {
			t.Fatalf("host %d still lists %d containers after reset", h.ID, n)
		}
		if h.CPUUtil() != h.Background.CPU || h.MemUtil() != h.Background.Mem {
			t.Fatalf("host %d util = %v/%v after reset, want background %+v", h.ID, h.CPUUtil(), h.MemUtil(), h.Background)
		}
		wantCPU := float64(h.Spec.Cores) * (1 - h.Background.CPU)
		if h.CPUFree() != wantCPU || h.MemFreeMB() != h.Spec.MemGB*1024 {
			t.Fatalf("host %d free = %v cores / %v MB after reset, want %v / %v", h.ID, h.CPUFree(), h.MemFreeMB(), wantCPU, h.Spec.MemGB*1024)
		}
	}
	if cl.CountFor("a") != 0 || cl.ContainersFor("b") != nil {
		t.Fatal("reset left the per-microservice index populated")
	}
	// Cluster remains usable.
	if _, err := cl.Place(PaperContainer("c"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestContainersOrdering(t *testing.T) {
	cl := New(3, PaperHost)
	for i := 0; i < 9; i++ {
		if _, err := cl.Place(PaperContainer("m"), i%3); err != nil {
			t.Fatal(err)
		}
	}
	prev := -1
	for _, c := range cl.Containers() {
		if c.ID <= prev {
			t.Fatal("containers not ordered by ID")
		}
		prev = c.ID
	}
	prev = -1
	for _, c := range cl.Host(0).Containers() {
		if c.ID <= prev {
			t.Fatal("host containers not ordered by ID")
		}
		prev = c.ID
	}
}

func TestInterferenceInflationMonotone(t *testing.T) {
	m := DefaultInterference
	if got := m.Inflation(0, 0); got != 1 {
		t.Fatalf("idle inflation = %v, want 1", got)
	}
	f := func(a, b uint8) bool {
		u1 := float64(a%101) / 100
		u2 := float64(b%101) / 100
		lo, hi := math.Min(u1, u2), math.Max(u1, u2)
		// Monotone in each argument separately.
		return m.Inflation(hi, 0.3) >= m.Inflation(lo, 0.3)-1e-12 &&
			m.Inflation(0.3, hi) >= m.Inflation(0.3, lo)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceCompactionKicksIn(t *testing.T) {
	m := DefaultInterference
	// Slope of inflation w.r.t. memory is much steeper past the knee.
	below := m.Inflation(0.2, 0.40) - m.Inflation(0.2, 0.35)
	above := m.Inflation(0.2, 0.90) - m.Inflation(0.2, 0.85)
	if above < 3*below {
		t.Fatalf("compaction effect too weak: below=%v above=%v", below, above)
	}
}

func TestInterferenceClampsInputs(t *testing.T) {
	m := DefaultInterference
	if m.Inflation(-1, -1) != 1 {
		t.Fatal("negative inputs should clamp to idle")
	}
	if m.Inflation(2, 2) != m.Inflation(1, 1) {
		t.Fatal("inputs above 1 should clamp")
	}
}

func TestHostInflationMatchesUtil(t *testing.T) {
	cl := New(1, HostSpec{Cores: 10, MemGB: 10})
	cl.SetBackground(0, workload.Interference{CPU: 0.47, Mem: 0.35})
	h := cl.Host(0)
	m := DefaultInterference
	if got, want := m.HostInflation(h), m.Inflation(0.47, 0.35); math.Abs(got-want) > 1e-12 {
		t.Fatalf("host inflation %v != %v", got, want)
	}
}

func TestRemoveRestoresUtilization(t *testing.T) {
	cl := New(2, PaperHost)
	cl.SetBackground(0, workload.Interference{CPU: 0.2, Mem: 0.1})
	h := cl.Host(0)
	cpuFree0, memFree0 := h.CPUFree(), h.MemFreeMB()
	cpuUtil0, memUtil0 := h.CPUUtil(), h.MemUtil()

	c1, err := cl.Place(PaperContainer("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Place(PaperContainer("b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Measured usage above the request must not leak into free-capacity
	// accounting after removal.
	c1.SetCPUUsage(2.5)
	if h.CPUFree() >= cpuFree0 || h.MemFreeMB() >= memFree0 {
		t.Fatal("placement did not consume capacity")
	}

	if err := cl.Remove(c1.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(c2.ID); err != nil {
		t.Fatal(err)
	}
	if got := h.CPUFree(); math.Abs(got-cpuFree0) > 1e-9 {
		t.Fatalf("CPUFree after remove = %v, want %v", got, cpuFree0)
	}
	if got := h.MemFreeMB(); math.Abs(got-memFree0) > 1e-9 {
		t.Fatalf("MemFreeMB after remove = %v, want %v", got, memFree0)
	}
	if got := h.CPUUtil(); math.Abs(got-cpuUtil0) > 1e-9 {
		t.Fatalf("CPUUtil after remove = %v, want %v", got, cpuUtil0)
	}
	if got := h.MemUtil(); math.Abs(got-memUtil0) > 1e-9 {
		t.Fatalf("MemUtil after remove = %v, want %v", got, memUtil0)
	}
	if cl.NumContainers() != 0 {
		t.Fatalf("containers left: %d", cl.NumContainers())
	}
}

func TestDownAndCordonedHostsRejectPlacement(t *testing.T) {
	cl := New(2, PaperHost)
	h := cl.Host(0)
	spec := PaperContainer("a")
	if !h.Fits(spec) {
		t.Fatal("healthy empty host should fit")
	}
	h.SetCordoned(true)
	if h.Fits(spec) || h.Schedulable() {
		t.Fatal("cordoned host should not fit")
	}
	if _, err := cl.Place(spec, 0); err == nil {
		t.Fatal("placement on cordoned host accepted")
	}
	h.SetCordoned(false)
	h.SetDown(true)
	if h.Fits(spec) || h.Schedulable() {
		t.Fatal("down host should not fit")
	}
	if _, err := cl.Place(spec, 0); err == nil {
		t.Fatal("placement on down host accepted")
	}
	h.SetDown(false)
	if _, err := cl.Place(spec, 0); err != nil {
		t.Fatalf("recovered host rejects placement: %v", err)
	}
}

func TestDownHostsExcludedFromMeans(t *testing.T) {
	cl := New(2, PaperHost)
	cl.SetBackground(0, workload.Interference{CPU: 0.8, Mem: 0.8})
	cl.SetBackground(1, workload.Interference{CPU: 0.2, Mem: 0.2})
	cl.Host(0).SetDown(true)
	if got := cl.MeanCPUUtil(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("mean CPU with host 0 down = %v, want 0.2", got)
	}
	cl.Host(1).SetDown(true)
	if got := cl.MeanCPUUtil(); got != 0 {
		t.Fatalf("mean CPU with all hosts down = %v", got)
	}
}
