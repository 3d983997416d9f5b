package sim

import (
	"testing"

	"erms/internal/stats"
)

// scanPolicy is the container queue as the simulator first kept it, held
// verbatim as the oracle the per-rank queue is compared against: one
// arrival-ordered slice, rescanned on every dequeue for the ranks present and
// each rank's oldest job, the pick removed with a memmove.
type scanPolicy struct {
	Delta float64
}

// Pick samples a priority class geometrically and serves its oldest job.
func (p scanPolicy) Pick(queue []*Job, r *stats.RNG) int {
	// Collect distinct priority classes present, in ascending (best-first)
	// order, remembering the oldest job index per class. Queues are short in
	// practice (bounded by burst size), so a linear scan is fine. The stack
	// buffer covers any realistic number of services sharing a microservice;
	// append moves to the heap past it.
	type class struct {
		prio  int
		first int
	}
	var buf [16]class
	classes := buf[:0]
	for i, j := range queue {
		found := false
		for k := range classes {
			if classes[k].prio == j.node.prio {
				found = true
				break
			}
		}
		if !found {
			classes = append(classes, class{prio: j.node.prio, first: i})
		}
	}
	// Insertion sort by priority (few classes).
	for i := 1; i < len(classes); i++ {
		for k := i; k > 0 && classes[k].prio < classes[k-1].prio; k-- {
			classes[k], classes[k-1] = classes[k-1], classes[k]
		}
	}
	if len(classes) == 1 {
		return classes[0].first
	}
	u := r.Float64()
	acc := 0.0
	for i := 0; i < len(classes)-1; i++ {
		p := (1 - p.Delta) * pow(p.Delta, i)
		acc += p
		if u < acc {
			return classes[i].first
		}
	}
	return classes[len(classes)-1].first
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// TestQueueMatchesScanOracle drives the per-rank queue and the scan oracle
// through the same seeded sequence of pushes (ranks 0–4), kicks that pop
// until a free thread takes an unsettled job (a settled one is skipped, as
// Runtime.kick does), and crash drains whose jobs are sometimes re-routed
// back onto the same container. Every pop must return the oracle's job,
// every drain the oracle's arrival order, and both pick RNGs must be in the
// same state after every step.
func TestQueueMatchesScanOracle(t *testing.T) {
	var nodes [5]callNode
	for i := range nodes {
		nodes[i].prio = i
	}
	for _, delta := range []float64{0, 0.05, 0.5, 1} {
		for seed := uint64(1); seed <= 8; seed++ {
			ops := stats.NewRNG(seed)
			rq, ro := stats.NewRNG(seed+100), stats.NewRNG(seed+100)
			oracle := scanPolicy{Delta: delta}
			q := &jobQueue{}
			var slice []*Job
			// Ranks in play vary by seed: 1 (the FCFS case) up to 5.
			ranks := 1 + int(seed-1)%len(nodes)
			for step := 0; step < 4000; step++ {
				// Alternate 250-step phases that fill and empty the queue.
				pushes := 75
				if step/250%2 == 1 {
					pushes = 35
				}
				switch op := ops.Intn(100); {
				case op < pushes:
					j := &Job{node: &nodes[ops.Intn(ranks)], settled: ops.Intn(4) == 0}
					q.push(j)
					slice = append(slice, j)
				case op < 99:
					for free := 1 + ops.Intn(3); free > 0 && len(slice) > 0; {
						got := q.pop(delta, rq)
						idx := oracle.Pick(slice, ro)
						want := slice[idx]
						slice = append(slice[:idx], slice[idx+1:]...)
						if got != want {
							t.Fatalf("δ=%v seed %d step %d: pop differs from the oracle's pick %d", delta, seed, step, idx)
						}
						if !got.settled {
							free--
						}
					}
				default:
					got, want := q.drain(), slice
					slice = nil
					if len(got) != len(want) {
						t.Fatalf("δ=%v seed %d step %d: drained %d jobs, oracle held %d", delta, seed, step, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("δ=%v seed %d step %d: drain position %d out of arrival order", delta, seed, step, i)
						}
					}
					if ops.Intn(2) == 0 { // zero survivors: re-routed onto the downed container
						for _, j := range got {
							q.push(j)
							slice = append(slice, j)
						}
					}
				}
				if *rq != *ro || q.n != len(slice) {
					t.Fatalf("δ=%v seed %d step %d: RNG states differ or %d queued against the oracle's %d", delta, seed, step, q.n, len(slice))
				}
			}
		}
	}
}
