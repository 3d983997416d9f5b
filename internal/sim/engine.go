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

// heapKey is one heap entry: an event's place in the (time, seq) order and
// the index of its payload in Engine.slots. It is 24 bytes and holds no
// pointer, so a sift moves three words per level and the garbage collector
// never scans the heap's array.
type heapKey struct {
	time float64
	seq  int64
	slot int32
}

// payload is what a heap event does: either a typed event for a call frame or
// a callback (arrival walkers, minute ticks, failure injection, closed-loop
// think time). gen is the frame's generation when the event was scheduled.
type payload struct {
	fn   func()
	f    *Job
	kind evKind
	gen  uint32
}

// eventHeap is a binary min-heap of keys ordered by (time, seq). Unlike
// container/heap it moves keys directly — no interface{} boxing on push or
// pop — so scheduling an event costs zero heap allocations once the backing
// array has grown to the simulation's high-water mark. Both sifts carry the
// moving key in a hole: one copy per level, not a three-copy swap.
type eventHeap []heapKey

// before is the engine's one order: time, then seq — FIFO for simultaneous
// events.
func before(t1 float64, s1 int64, t2 float64, s2 int64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

func (h *eventHeap) push(k heapKey) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(k.time, k.seq, s[parent].time, s[parent].seq) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

// pop removes the top key; the caller has read it from s[0].
func (h *eventHeap) pop() {
	s := *h
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return
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
}

// hopEvent is one lane entry: a typed event one network hop from when it was
// scheduled. It is a heap key and a payload without the callback.
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
// usable; call newEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap

	// slots holds the payloads of the heap's events, indexed by heapKey.slot;
	// free lists the slots no pending event holds, most recently freed last.
	slots []payload
	free  []int32

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

// newEngine creates an engine with the clock at zero whose lane delivers lag
// (>= 0, finite) ms after scheduling. The queues' backing arrays are
// pre-sized so short simulations never reallocate them.
func newEngine(lag float64) *Engine {
	return &Engine{
		events: make(eventHeap, 0, 1024),
		slots:  make([]payload, 0, 1024),
		free:   make([]int32, 0, 1024),
		lag:    lag,
		lane:   make([]hopEvent, 256),
	}
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
func (e *Engine) At(t float64, fn func()) { e.push(t, fn, nil, 0, 0) }

// atFrame delivers a typed event to call frame f at absolute time t.
func (e *Engine) atFrame(t float64, f *Job, kind evKind) { e.push(t, nil, f, kind, f.gen) }

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
	// Field by field, in place: a composite literal would be built on the
	// stack and copied into the ring with 16-byte loads that store-forwarding
	// cannot serve from the narrower stores that just built it.
	h := &e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)]
	h.time, h.seq, h.f, h.kind, h.gen = t, e.seq, f, kind, f.gen
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

// push schedules a heap event at time t (the past clamps to now): its payload
// into a free slot, its key onto the heap.
func (e *Engine) push(t float64, fn func(), f *Job, kind evKind, gen uint32) {
	if t < e.now {
		t = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, payload{})
	}
	p := &e.slots[slot]
	p.fn, p.f, p.kind, p.gen = fn, f, kind, gen
	e.seq++
	e.events.push(heapKey{time: t, seq: e.seq, slot: slot})
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
		top := e.events[0]
		if top.time > until {
			break
		}
		e.events.pop()
		p := &e.slots[top.slot]
		fn, f, kind, gen := p.fn, p.f, p.kind, p.gen
		p.fn, p.f = nil, nil // release the closure and frame references
		e.free = append(e.free, top.slot)
		e.now = top.time
		e.processed++
		if f != nil {
			f.handle(kind, gen)
		} else {
			fn()
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
