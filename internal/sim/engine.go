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

// event is one scheduled occurrence on the heap: either a typed event for a
// call frame or a callback (arrival walkers, minute ticks, failure injection,
// closed-loop think time). gen is the frame's generation when the event was
// scheduled.
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
// backing array has grown to the simulation's high-water mark. Both sifts
// carry the moving event in a hole: one copy per level, not a three-copy swap.
type eventHeap []event

// before is the engine's one order: time, then seq — FIFO for simultaneous
// events.
func before(t1 float64, s1 int64, t2 float64, s2 int64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(e.time, e.seq, s[parent].time, s[parent].seq) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release the closure and frame references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && before(s[r].time, s[r].seq, s[m].time, s[m].seq) {
			m = r
		}
		if !before(s[m].time, s[m].seq, last.time, last.seq) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// hopEvent is one lane entry: a typed event one network hop from when it was
// scheduled. It is an event without the callback.
type hopEvent struct {
	time float64
	seq  int64
	f    *Job
	kind evKind
	gen  uint32
}

// Engine is a discrete-event clock with two pending-event queues that share
// one (time, seq) order: a heap for events at arbitrary times and a FIFO lane
// for the events scheduled exactly lag ms from now — a call's two network
// hops, two of the three events it costs. The clock never runs backwards, lag
// is fixed and seq only grows, so the lane's entries are pushed already
// sorted and never sift. Time is in milliseconds. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap

	// The lane is a ring of power-of-two size: lane[laneHead] is its oldest
	// entry, laneLen its occupancy and laneTail the time of the newest entry
	// ever pushed.
	lag      float64
	lane     []hopEvent
	laneHead int
	laneLen  int
	laneTail float64

	// Self-telemetry: plain integer counters so the hot loop stays
	// allocation-free whether or not anyone reads them. heapPushes is what
	// tests hold against processed to see that hops bypass the heap.
	processed  int64
	heapPushes int64
	heapPeak   int
}

// NewEngine creates an engine with the clock at zero and a zero lag. The
// queues' backing arrays are pre-sized so short simulations never reallocate
// them.
func NewEngine() *Engine { return newEngine(0) }

// newEngine creates an engine whose lane delivers lag (>= 0, finite) ms after
// scheduling.
func newEngine(lag float64) *Engine {
	return &Engine{events: make(eventHeap, 0, 1024), lag: lag, lane: make([]hopEvent, 256)}
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

// hopFrame delivers a typed event to call frame f one network hop (lag ms)
// from now, through the lane.
func (e *Engine) hopFrame(f *Job, kind evKind) {
	t := e.now + e.lag
	if t < e.laneTail {
		// Cannot happen while lag is fixed; the heap is exact for any time.
		e.atFrame(t, f, kind)
		return
	}
	e.laneTail = t
	if e.laneLen == len(e.lane) {
		e.growLane()
	}
	e.seq++
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = hopEvent{time: t, seq: e.seq, f: f, kind: kind, gen: f.gen}
	e.laneLen++
	e.notePending()
}

// growLane doubles the ring, oldest entry first.
func (e *Engine) growLane() {
	grown := make([]hopEvent, 2*len(e.lane))
	n := copy(grown, e.lane[e.laneHead:])
	copy(grown[n:], e.lane[:e.laneHead])
	e.lane, e.laneHead = grown, 0
}

func (e *Engine) push(ev event) {
	if ev.time < e.now {
		ev.time = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	e.heapPushes++
	e.notePending()
}

func (e *Engine) notePending() {
	if n := e.Pending(); n > e.heapPeak {
		e.heapPeak = n
	}
}

// Run processes events in (time, seq) order — at each step the smaller of the
// lane's head and the heap's top — until both queues empty or the clock
// passes until (milliseconds). Events scheduled exactly at until are
// executed.
func (e *Engine) Run(until float64) {
	for e.Pending() > 0 {
		if h := &e.lane[e.laneHead]; e.laneLen > 0 &&
			(len(e.events) == 0 || before(h.time, h.seq, e.events[0].time, e.events[0].seq)) {
			if h.time > until {
				break
			}
			f, kind, gen := h.f, h.kind, h.gen
			h.f = nil // release the frame reference
			e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
			e.laneLen--
			e.now = h.time
			e.processed++
			f.handle(kind, gen)
			continue
		}
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

// Pending returns the number of queued events, lane + heap (for tests and
// diagnostics).
func (e *Engine) Pending() int { return e.laneLen + len(e.events) }

// EngineStats is the engine's self-telemetry, reported through the
// simulation Result and mirrored into the erms.self.* namespace by the
// control plane's observability layer. All values are deterministic for a
// fixed seed.
type EngineStats struct {
	// Events is the number of events executed.
	Events int64
	// HeapPeak is the high-water count of pending events, lane + heap.
	HeapPeak int
}

// Stats returns the engine's counters so far.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Events: e.processed, HeapPeak: e.heapPeak}
}
