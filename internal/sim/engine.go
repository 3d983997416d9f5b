// Package sim is a discrete-event simulator of a microservice cluster. It
// executes service requests against dependency graphs on a simulated
// cluster: each container runs a fixed pool of worker threads, excess
// requests queue, service times are inflated by host-level resource
// interference, and parallel/sequential downstream calls compose exactly as
// in the paper's Fig. 1.
//
// The simulator substitutes for the paper's Kubernetes + DeathStarBench
// testbed. Crucially, it does not hard-code the paper's piece-wise linear
// latency model; the knee and the interference-dependent slope emerge from
// queueing at finite thread pools, and the profiler (internal/profiling)
// has to rediscover the model from simulated traces.
package sim

// evKind says what a typed event asks of its call frame; see Job.handle.
type evKind uint8

const (
	evArrive   evKind = iota // the call reaches the server: route, then start or queue
	evComplete               // a container thread finishes the call's own processing
	evServed                 // fluid path: the analytically drawn latency has elapsed
	evReturn                 // the response reaches the client
	evFail                   // a failure (Job.err) reaches the client
	evTimeout                // the per-attempt timer fires
	evRetry                  // the retry backoff has elapsed
)

// event is one scheduled occurrence: either a typed event for a call frame
// (every per-call step of a request) or a callback (arrival walkers, minute
// ticks, failure injection, closed-loop think time). gen is the frame's
// generation when the event was scheduled.
type event struct {
	time float64
	seq  int64
	fn   func()
	f    *Job
	kind evKind
	gen  uint32
}

// eventHeap is a typed binary min-heap ordered by (time, seq). Unlike
// container/heap it moves event values directly — no interface{} boxing on
// push or pop — so scheduling an event costs zero heap allocations once the
// backing array has grown to the simulation's high-water mark.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq // stable FIFO for simultaneous events
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure and frame references
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Engine is a discrete-event clock with a pending-event heap. Time is in
// milliseconds. The zero value is not usable; call NewEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap

	// Self-telemetry: plain integer counters so the hot loop stays
	// allocation-free whether or not anyone reads them.
	processed int64
	heapPeak  int
}

// NewEngine creates an engine with the clock at zero. The event heap's
// backing array is pre-sized so short simulations never reallocate it.
func NewEngine() *Engine {
	return &Engine{events: make(eventHeap, 0, 1024)}
}

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after the given delay (>= 0) in milliseconds.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute time; times in the past run "now".
func (e *Engine) At(t float64, fn func()) { e.push(event{time: t, fn: fn}) }

// atFrame delivers a typed event to call frame f at absolute time t.
func (e *Engine) atFrame(t float64, f *Job, kind evKind) {
	e.push(event{time: t, f: f, kind: kind, gen: f.gen})
}

func (e *Engine) push(ev event) {
	if ev.time < e.now {
		ev.time = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	if n := len(e.events); n > e.heapPeak {
		e.heapPeak = n
	}
}

// Run processes events until the queue empties or the clock passes until
// (milliseconds). Events scheduled exactly at until are executed.
func (e *Engine) Run(until float64) {
	for len(e.events) > 0 {
		if e.events[0].time > until {
			break
		}
		next := e.events.pop()
		e.now = next.time
		e.processed++
		if next.f != nil {
			next.f.handle(next.kind, next.gen)
		} else {
			next.fn()
		}
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of queued events (for tests and diagnostics).
func (e *Engine) Pending() int { return len(e.events) }

// EngineStats is the engine's self-telemetry, reported through the
// simulation Result and mirrored into the erms.self.* namespace by the
// control plane's observability layer. All values are deterministic for a
// fixed seed.
type EngineStats struct {
	// Events is the number of events executed.
	Events int64
	// HeapPeak is the high-water pending-event depth.
	HeapPeak int
}

// Stats returns the engine's counters so far.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Events: e.processed, HeapPeak: e.heapPeak}
}
