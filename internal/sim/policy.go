package sim

import "erms/internal/stats"

// Policy selects which queued job a freed worker thread serves next.
type Policy interface {
	// Pick returns the index of the job to serve from the non-empty queue.
	// Jobs are ordered by arrival (index 0 is the oldest).
	Pick(queue []*Job, r *stats.RNG) int
}

// FCFS serves jobs strictly in arrival order — the default Kubernetes-like
// behaviour at shared microservices (§2.3).
type FCFS struct{}

// Pick returns the oldest job.
func (FCFS) Pick([]*Job, *stats.RNG) int { return 0 }

// PriorityPolicy implements Erms' probabilistic priority scheduling (§5.3.2):
// when a thread frees, the highest-priority class present is served with
// probability 1-Delta, the next with probability Delta*(1-Delta), and so on;
// the lowest class receives the residual probability. Within a class, jobs
// are FCFS. Delta=0 degenerates to strict priority.
type PriorityPolicy struct {
	Delta float64
}

// Pick samples a priority class geometrically and serves its oldest job.
func (p PriorityPolicy) Pick(queue []*Job, r *stats.RNG) int {
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
			if classes[k].prio == j.Priority {
				found = true
				break
			}
		}
		if !found {
			classes = append(classes, class{prio: j.Priority, first: i})
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
