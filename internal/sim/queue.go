package sim

import "erms/internal/stats"

// jobQueue is one container's waiting room under Erms' probabilistic
// priority scheduling (§5.3.2): one FIFO band per priority rank, as the
// paper's tc pfifo_fast keeps them, linked through Job.next and kept in
// ascending (best-first) rank order. When a thread frees, the best rank
// present is served with probability 1-δ, the next with δ(1-δ), and so on;
// the worst rank present takes the residual. δ=0 is strict priority. A queue
// that only ever holds one rank — every unshared microservice queues rank 0 —
// is FCFS and never draws.
type jobQueue struct {
	bands []band // every rank queued so far; empty bands stay, so a warm queue allocates nothing
	n     int    // jobs queued
	seq   int64  // arrivals stamped so far; a crash drains in stamp order
}

type band struct {
	rank       int
	head, tail *Job
}

// push queues f at the tail of its rank's band.
func (q *jobQueue) push(f *Job) {
	rank := f.node.prio
	i := 0
	for i < len(q.bands) && q.bands[i].rank < rank {
		i++
	}
	if i == len(q.bands) || q.bands[i].rank != rank {
		q.bands = append(q.bands, band{})
		copy(q.bands[i+1:], q.bands[i:])
		q.bands[i] = band{rank: rank}
	}
	b := &q.bands[i]
	q.seq++
	f.seq = q.seq
	if b.tail == nil {
		b.head = f
	} else {
		b.tail.next = f
	}
	b.tail = f
	q.n++
}

// pop removes the job a freed thread serves next from the non-empty queue.
// It draws one r.Float64() when two or more ranks are present, none
// otherwise.
func (q *jobQueue) pop(delta float64, r *stats.RNG) *Job {
	present := 0
	for i := range q.bands {
		if q.bands[i].head != nil {
			present++
		}
	}
	pick := present - 1 // the worst rank present takes the residual
	if present > 1 {
		u := r.Float64()
		acc, pow := 0.0, 1.0
		for k := 0; k < present-1; k++ {
			acc += (1 - delta) * pow
			if u < acc {
				pick = k
				break
			}
			pow *= delta
		}
	}
	for i := range q.bands {
		if b := &q.bands[i]; b.head != nil {
			if pick == 0 {
				return q.take(b)
			}
			pick--
		}
	}
	panic("sim: pop from an empty container queue")
}

// drain empties the queue and returns its jobs in arrival order.
func (q *jobQueue) drain() []*Job {
	out := make([]*Job, 0, q.n)
	for q.n > 0 {
		var first *band
		for i := range q.bands {
			if b := &q.bands[i]; b.head != nil && (first == nil || b.head.seq < first.head.seq) {
				first = b
			}
		}
		out = append(out, q.take(first))
	}
	return out
}

// take pops the head of b.
func (q *jobQueue) take(b *band) *Job {
	f := b.head
	b.head, f.next = f.next, nil
	if b.head == nil {
		b.tail = nil
	}
	q.n--
	return f
}
