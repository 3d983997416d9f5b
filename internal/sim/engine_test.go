package sim

import (
	"testing"

	"erms/internal/stats"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := newEngine(0)
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(9, func() { order = append(order, 3) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := newEngine(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := newEngine(0)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(10.0001, func() { ran++ })
	e.Run(10)
	if ran != 1 {
		t.Fatalf("ran = %d, want exactly the event at the boundary", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(11)
	if ran != 2 {
		t.Fatalf("ran = %d after second Run", ran)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newEngine(0)
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := newEngine(0)
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-10, func() { fired = true })
	})
	e.Run(5)
	if !fired {
		t.Fatal("past-scheduled event did not run")
	}
	if e.Now() != 5 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

// queueOf pushes one job per rank, in the order given, onto a fresh queue.
func queueOf(ranks ...int) (*jobQueue, []*Job) {
	q := &jobQueue{}
	jobs := make([]*Job, len(ranks))
	for i, r := range ranks {
		jobs[i] = &Job{node: &callNode{prio: r}}
		q.push(jobs[i])
	}
	return q, jobs
}

// FCFS is the one-rank case of the δ-policy: a queue that holds a single rank
// pops in arrival order and never touches the RNG, which is what keeps every
// unshared microservice's decisions and draws as they were.
func TestFCFSPicksOldest(t *testing.T) {
	q, jobs := queueOf(0, 0, 0)
	r := stats.NewRNG(1)
	for i, want := range jobs {
		if got := q.pop(0.05, r); got != want {
			t.Fatalf("pop %d: got a later job", i)
		}
	}
	if q.n != 0 || *r != *stats.NewRNG(1) {
		t.Fatalf("one-rank queue left %d jobs or drew from the RNG", q.n)
	}
}

func TestPriorityPolicyStrictWhenDeltaZero(t *testing.T) {
	r := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		q, jobs := queueOf(2, 1, 0, 0)
		for k, want := range []int{2, 3, 1, 0} {
			if got := q.pop(0, r); got != jobs[want] {
				t.Fatalf("strict priority: pop %d is not job %d", k, want)
			}
		}
	}
}

func TestPriorityPolicyDeltaDistribution(t *testing.T) {
	r := stats.NewRNG(1)
	q, _ := queueOf(1, 0)
	high := 0
	const n = 100000
	for i := 0; i < n; i++ {
		j := q.pop(0.2, r)
		if j.node.prio == 0 {
			high++
		}
		q.push(j) // one job per rank: the queue is as before
	}
	frac := float64(high) / n
	if frac < 0.79 || frac > 0.81 {
		t.Fatalf("high-priority share = %v, want ~0.8", frac)
	}
}

func TestPriorityPolicyThreeClasses(t *testing.T) {
	r := stats.NewRNG(2)
	q, _ := queueOf(2, 1, 0)
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		j := q.pop(0.1, r)
		counts[j.node.prio]++
		q.push(j)
	}
	// Expected: 0.9, 0.09, 0.01.
	want := []float64{0.9, 0.09, 0.01}
	for i, w := range want {
		got := float64(counts[i]) / n
		if got < w*0.8 || got > w*1.2 {
			t.Fatalf("class %d share = %v, want ~%v", i, got, w)
		}
	}
}

func TestPriorityPolicyWithinClassFCFS(t *testing.T) {
	r := stats.NewRNG(3)
	q, jobs := queueOf(1, 0, 0)
	if got := q.pop(0, r); got != jobs[1] {
		t.Fatal("did not pop the oldest job of the best class")
	}
}

func TestPriorityPolicySingleClass(t *testing.T) {
	r := stats.NewRNG(4)
	q, jobs := queueOf(3, 3)
	for i := 0; i < 50; i++ {
		got := q.pop(0.05, r)
		if got != jobs[i%2] {
			t.Fatalf("single class pop %d is not the oldest job", i)
		}
		q.push(got)
	}
	if *r != *stats.NewRNG(4) {
		t.Fatal("single class drew from the RNG")
	}
}

// event is the one-heap oracle's entry (engine_oracle_test.go): its heap key
// and its payload in one value, as the engine stored an event before keys and
// payloads were split.
type event struct {
	time float64
	seq  int64
	fn   func()
	f    *Job
	kind evKind
	gen  uint32
}
