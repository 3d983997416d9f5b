package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"erms/internal/cluster"
	"erms/internal/kube"
	"erms/internal/workload"
)

// checkIndexAndCache compares the per-microservice index with a brute-force
// scan of Containers(), and every cached host aggregate, both cluster means
// and the imbalance with a from-scratch recomputation in ID order, bit for
// bit. Bit-identity is what keeps the determinism suites and golden tables
// stable: an aggregate maintained by adding and subtracting deltas would
// drift from the recomputed value in the last ulp and leak the history of
// placements into CPUUtil.
func checkIndexAndCache(t *testing.T, cl *cluster.Cluster, step string) {
	t.Helper()
	byMS := make(map[string][]*cluster.Container)
	for _, c := range cl.Containers() {
		byMS[c.Spec.Microservice] = append(byMS[c.Spec.Microservice], c)
	}
	for m := 0; m < numMS; m++ {
		ms := msName(m)
		want, got := byMS[ms], cl.ContainersFor(ms)
		if cl.CountFor(ms) != len(want) || len(got) != len(want) {
			t.Fatalf("%s: %s count = %d, ContainersFor = %d, scan = %d", step, ms, cl.CountFor(ms), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ContainersFor(%s)[%d] = container %d, scan has %d", step, ms, i, got[i].ID, want[i].ID)
			}
		}
	}
	var liveCPU, liveMem []float64 // recomputed utilization of each live host, in ID order
	for _, h := range cl.Hosts() {
		hs, bg := h.Spec(), h.Background()
		cores, memMB := float64(hs.Cores), hs.MemGB*1024
		extCPU, extMem := h.ExternalUsage()
		cpu := bg.CPU + extCPU/cores
		mem := bg.Mem + extMem/memMB
		cpuFree := cores * (1 - bg.CPU)
		memFree := memMB * (1 - bg.Mem)
		prev := -1
		for _, c := range h.Containers() {
			if c.ID <= prev || c.Host != h {
				t.Fatalf("%s: host %d lists container %d (host %d) after %d", step, h.ID, c.ID, c.Host.ID, prev)
			}
			prev = c.ID
			cpu += c.CPUUsage() / cores
			mem += c.Spec.MemMB / memMB
			cpuFree -= c.Spec.CPU
			memFree -= c.Spec.MemMB
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"CPUUtil", h.CPUUtil(), math.Min(cpu, 1)},
			{"MemUtil", h.MemUtil(), math.Min(mem, 1)},
			{"CPUFree", h.CPUFree(), cpuFree},
			{"MemFreeMB", h.MemFreeMB(), memFree},
		} {
			if math.Float64bits(v.got) != math.Float64bits(v.want) {
				t.Fatalf("%s: host %d %s = %v, recomputed %v", step, h.ID, v.name, v.got, v.want)
			}
		}
		if !h.Down() {
			liveCPU = append(liveCPU, math.Min(cpu, 1))
			liveMem = append(liveMem, math.Min(mem, 1))
		}
	}
	var meanCPU, meanMem float64
	if n := len(liveCPU); n > 0 {
		for i := range liveCPU {
			meanCPU += liveCPU[i]
			meanMem += liveMem[i]
		}
		meanCPU, meanMem = meanCPU/float64(n), meanMem/float64(n)
	}
	var imbalance float64
	for i := range liveCPU {
		dc, dm := liveCPU[i]-meanCPU, liveMem[i]-meanMem
		imbalance += dc*dc + dm*dm
	}
	for _, v := range []struct {
		name      string
		got, want float64
	}{
		{"MeanCPUUtil", cl.MeanCPUUtil(), meanCPU},
		{"MeanMemUtil", cl.MeanMemUtil(), meanMem},
		{"Imbalance", cl.Imbalance(), imbalance},
	} {
		if math.Float64bits(v.got) != math.Float64bits(v.want) {
			t.Fatalf("%s: %s = %v, recomputed %v", step, v.name, v.got, v.want)
		}
	}
}

const numMS = 5

func msName(m int) string { return fmt.Sprintf("ms%d", m) }

func TestIndexAndCacheMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(4, cluster.HostSpec{Cores: 4, MemGB: 8})
		o := kube.New(cl, nil)
		spec := func() cluster.ContainerSpec {
			return cluster.ContainerSpec{
				Microservice: msName(rng.Intn(numMS)),
				CPU:          0.1 + 0.3*rng.Float64(),
				MemMB:        100 + 400*rng.Float64(),
				Threads:      2,
			}
		}
		for i := 0; i < 400; i++ {
			host := rng.Intn(cl.NumHosts())
			var step string
			switch op := rng.Intn(13); op {
			case 0, 1, 2:
				step = "Place"
				cl.Place(spec(), host) // may be refused: full or down
			case 3:
				step = "Remove"
				if cs := cl.Containers(); len(cs) > 0 {
					if err := cl.Remove(cs[rng.Intn(len(cs))].ID); err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				step = "FailNode"
				if err := o.FailNode(host); err != nil {
					t.Fatal(err)
				}
			case 5:
				step = "RecoverNode"
				if err := o.RecoverNode(host); err != nil {
					t.Fatal(err)
				}
			case 7:
				step = "SetCPUUsage"
				if cs := cl.Containers(); len(cs) > 0 {
					cs[rng.Intn(len(cs))].SetCPUUsage(2*rng.Float64() - 0.1)
				}
			case 8:
				step = "SetExternalUsage"
				cl.Host(host).SetExternalUsage(3*rng.Float64(), 4096*rng.Float64())
			case 9:
				step = "SetBackground"
				if err := cl.SetBackground(host, workload.Interference{CPU: rng.Float64(), Mem: rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			case 10:
				step = "SetBackground (light)"
				if err := cl.SetBackground(host, workload.Interference{CPU: 0.5 * rng.Float64(), Mem: 0.5 * rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			case 6, 11:
				// Unlike FailNode, a bare SetDown leaves the containers in place.
				step = "SetDown"
				cl.Host(host).SetDown(!cl.Host(host).Down())
			case 12:
				step = "SetHostSpec"
				hs := cluster.HostSpec{Cores: 2 + rng.Intn(6), MemGB: 4 + 8*rng.Float64()}
				if err := cl.SetHostSpec(host, hs); err != nil {
					t.Fatal(err)
				}
			}
			// Each check also fills every host's cache, so the next step
			// has a populated cache to invalidate.
			checkIndexAndCache(t, cl, fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
		}
	}
}
