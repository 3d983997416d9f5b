// Package provision implements Erms' interference-aware Resource
// Provisioning module (§5.4): containers are placed (and released) so as to
// minimize resource unbalance across hosts — the sum of squared deviations
// between each host's utilization and the cluster-wide mean — because
// unbalanced hosts create unbalanced container performance and SLA
// violations. The exact problem is a non-linear integer program (NP-hard);
// following the paper, hosts are statically divided into groups and each
// placement only searches one group (the POP technique [31]), plus a greedy
// local-search Rebalance for the background.
package provision

import (
	"fmt"
	"sort"

	"erms/internal/cluster"
	"erms/internal/kube"
)

// InterferenceAware is a kube.Scheduler that minimizes utilization
// imbalance. The zero value uses a single group (full search).
type InterferenceAware struct {
	// Groups is the POP partition count; <= 1 disables partitioning.
	Groups int

	cursor int
	// pop caches the partition: pop[g] lists the host IDs of group g in ID
	// order. Membership depends on the host ID alone, so it is valid for any
	// cluster of popHosts hosts searched with popGroups groups.
	pop                 [][]int
	popGroups, popHosts int
}

var _ kube.Scheduler = (*InterferenceAware)(nil)

// hostDeviation is one host's contribution to the imbalance objective,
// evaluated against the current cluster means.
func hostDeviation(h *cluster.Host, meanCPU, meanMem float64) float64 {
	dc := h.CPUUtil() - meanCPU
	dm := h.MemUtil() - meanMem
	return dc*dc + dm*dm
}

// placementDelta estimates the imbalance change from adding spec to h,
// holding the cluster means fixed (the means move by O(1/#hosts), which the
// greedy search can ignore).
func placementDelta(h *cluster.Host, spec cluster.ContainerSpec, meanCPU, meanMem float64) float64 {
	before := hostDeviation(h, meanCPU, meanMem)
	dc := h.CPUUtil() + spec.CPU/float64(h.Spec.Cores) - meanCPU
	dm := h.MemUtil() + spec.MemMB/(h.Spec.MemGB*1024) - meanMem
	return dc*dc + dm*dm - before
}

// group returns the host IDs of the POP group with the given index, in ID
// order (every host when partitioning is off or there are no more hosts than
// groups). Membership is a pseudo-random (but deterministic) hash of the host
// ID rather than a round-robin stripe, so groups do not accidentally align
// with structured background-load patterns in the cluster (POP [31] likewise
// partitions randomly). The partition is computed once per (Groups, host
// count), not per placement.
func (s *InterferenceAware) group(nHosts, idx int) []int {
	if s.pop == nil || s.popGroups != s.Groups || s.popHosts != nHosts {
		groups := s.Groups
		if groups <= 1 || groups >= nHosts {
			groups = 1
		}
		s.pop = make([][]int, groups)
		for id := 0; id < nHosts; id++ {
			hash := uint64(id+1) * 0x9e3779b97f4a7c15
			g := int(hash>>33) % groups
			s.pop[g] = append(s.pop[g], id)
		}
		s.popGroups, s.popHosts = s.Groups, nHosts
	}
	return s.pop[idx%len(s.pop)]
}

// Place picks the feasible host (within the next POP group, falling back to
// the whole cluster) whose loading least increases the imbalance objective.
func (s *InterferenceAware) Place(cl *cluster.Cluster, spec cluster.ContainerSpec) (int, error) {
	meanCPU, meanMem := cl.MeanCPUUtil(), cl.MeanMemUtil()
	hosts := cl.Hosts()
	try := func(ids []int) (int, bool) {
		best, bestDelta, found := -1, 0.0, false
		for _, id := range ids {
			h := hosts[id]
			if !h.Fits(spec) {
				continue
			}
			d := placementDelta(h, spec, meanCPU, meanMem)
			if !found || d < bestDelta {
				best, bestDelta, found = h.ID, d, true
			}
		}
		return best, found
	}
	groups := 1
	if s.Groups > 1 {
		groups = s.Groups
	}
	for attempt := 0; attempt < groups; attempt++ {
		idx := s.cursor % groups
		s.cursor++
		if id, ok := try(s.group(len(hosts), idx)); ok {
			return id, nil
		}
	}
	return 0, fmt.Errorf("provision: no host fits container %s", spec.Microservice)
}

// Evict removes the container of the microservice whose departure most
// reduces the imbalance objective (i.e. from the most over-utilized host).
func (s *InterferenceAware) Evict(cl *cluster.Cluster, microservice string) (*cluster.Container, error) {
	cs := cl.ContainersFor(microservice)
	if len(cs) == 0 {
		return nil, fmt.Errorf("provision: no containers of %s", microservice)
	}
	meanCPU, meanMem := cl.MeanCPUUtil(), cl.MeanMemUtil()
	sort.Slice(cs, func(i, j int) bool {
		return hostDeviation(cs[i].Host, meanCPU, meanMem) > hostDeviation(cs[j].Host, meanCPU, meanMem)
	})
	// Prefer a host that is actually above the mean; otherwise the most
	// deviant one still wins (removing from an under-utilized host can
	// increase imbalance, but something must be evicted).
	for _, c := range cs {
		if c.Host.CPUUtil() >= meanCPU || c.Host.MemUtil() >= meanMem {
			return c, nil
		}
	}
	return cs[0], nil
}

// moveDelta is the change of one resource's imbalance term Σ x_h² when a
// migration shifts the source's utilization by da and the destination's by
// db. x_h are the deviations of the n live hosts from their mean, xa and xb
// those of the two hosts, sum their total (the rounding residue of the mean,
// kept so the score tracks cluster.Imbalance to the last few ulps). Both
// shifts move the mean by dm = (da+db)/n, which gives
//
//	n·dm² − 2·dm·Σx_h + da·(2(xa−dm)+da) + db·(2(xb−dm)+db)
func moveDelta(n, sum, xa, da, xb, db float64) float64 {
	dm := (da + db) / n
	return n*dm*dm - 2*dm*sum + da*(2*(xa-dm)+da) + db*(2*(xb-dm)+db)
}

// Rebalance greedily migrates containers from the most deviant hosts to the
// hosts where they most reduce the imbalance objective, performing at most
// maxMoves migrations. It returns the number of migrations made. This is the
// scale-down/scale-out companion the Resource Provisioning module runs when
// Online Scaling adjusts allocations (§5.4).
//
// Candidate moves are scored arithmetically against one utilization snapshot
// per iteration; the cluster is touched only to commit the chosen move, so a
// call that returns 0 leaves every container, ID and float as it found them.
func Rebalance(cl *cluster.Cluster, maxMoves int) int {
	hosts := cl.Hosts()
	// Deviation of each live host from the cluster means, by host ID.
	devCPU := make([]float64, len(hosts))
	devMem := make([]float64, len(hosts))
	moves := 0
	for moves < maxMoves {
		meanCPU, meanMem := cl.MeanCPUUtil(), cl.MeanMemUtil()
		live := 0
		var sumDevCPU, sumDevMem float64
		// Most deviant over-utilized host.
		var src *cluster.Host
		var srcDev float64
		for _, h := range hosts {
			if h.Down() {
				continue // cluster.Imbalance leaves failed hosts out
			}
			cpu, mem := h.CPUUtil(), h.MemUtil()
			dc, dm := cpu-meanCPU, mem-meanMem
			devCPU[h.ID], devMem[h.ID] = dc, dm
			sumDevCPU += dc
			sumDevMem += dm
			live++
			if h.NumContainers() == 0 || (cpu < meanCPU && mem < meanMem) {
				continue
			}
			if d := dc*dc + dm*dm; src == nil || d > srcDev {
				src, srcDev = h, d
			}
		}
		if src == nil {
			return moves
		}
		// Score each container on src against each other host; take the best
		// strictly-improving move.
		n := float64(live)
		srcCPU, srcMem := src.CPUUtil(), src.MemUtil()
		var bestC *cluster.Container
		var bestDst *cluster.Host
		bestDelta := 0.0
		for _, c := range src.Containers() {
			cpuA, memA := src.UtilAfter(-c.CPUUsage(), -c.Spec.MemMB)
			for _, dst := range hosts {
				if dst.ID == src.ID || !dst.Fits(c.Spec) {
					continue
				}
				cpuB, memB := dst.UtilAfter(c.CPUUsage(), c.Spec.MemMB)
				d := moveDelta(n, sumDevCPU, devCPU[src.ID], cpuA-srcCPU, devCPU[dst.ID], cpuB-dst.CPUUtil()) +
					moveDelta(n, sumDevMem, devMem[src.ID], memA-srcMem, devMem[dst.ID], memB-dst.MemUtil())
				if d < bestDelta-1e-12 {
					bestDelta, bestC, bestDst = d, c, dst
				}
			}
		}
		if bestC == nil {
			return moves
		}
		// Commit: the replacement is placed before the original is removed, so
		// a failed placement loses nothing.
		moved, err := cl.Place(bestC.Spec, bestDst.ID)
		if err != nil {
			return moves
		}
		moved.SetCPUUsage(bestC.CPUUsage())
		_ = cl.Remove(bestC.ID) // cannot fail: src listed bestC this iteration
		moves++
	}
	return moves
}
