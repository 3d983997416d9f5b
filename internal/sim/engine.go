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

import "math"

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

// payload is what a heap event does: a typed event for a call frame, on the
// frame heap, or a callback on the callback heap (arrival walkers, minute
// ticks, failure injection, closed-loop think time). gen is the frame's
// generation when the event was scheduled.
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

// timer is one wheel entry: an evTimeout for frame f at (time, seq), linked
// into its bucket's list. Entries are indexed into Engine.timers; index 0 is
// the nil entry, so a zero link ends a list and a zero Job.timer means the
// frame has no timer in the wheel.
type timer struct {
	time       float64
	seq        int64
	f          *Job
	prev, next int32
}

// The timing wheel is wheelSlots buckets of one millisecond each: bucket b
// holds the timers due in [b, b+1) ms and lives in slot b mod wheelSlots.
const wheelSlots = 64

// Engine is a discrete-event clock with four pending-event queues that share
// one (time, seq) order: a heap for typed frame events at drawn times, a
// second heap for callbacks, a FIFO lane for the events scheduled exactly lag
// ms from now — a call's two network hops, two of the three events it costs
// — and a timing wheel for attempt timeouts. The clock never runs backwards,
// lag is fixed and seq only grows, so the lane's entries are pushed already
// sorted and never sift. Every open-loop stream keeps one arrival walker
// pending for the whole run, so callbacks wait on their own heap and the
// frame heap's depth follows the calls in service, not the number of
// services. Almost every timeout is cancelled when its attempt settles, so a
// timer waits in its millisecond's bucket, where settling unlinks it, and
// reaches the frame heap only when that bucket comes due. Time is in
// milliseconds. The zero value is not usable; call newEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap // typed frame events
	calls  eventHeap // callbacks

	// slots holds the payloads of both heaps' events, indexed by
	// heapKey.slot; free lists the slots no pending event holds, most
	// recently freed last.
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
	// allocation-free whether or not anyone reads them. heapPushes counts
	// pushes onto either heap; tests hold it against processed to see that
	// hops and settled timeouts bypass the heaps.
	processed  int64
	heapPushes int64
	heapPeak   int

	// The wheel holds wheelLen timers. wheelNext is the first bucket not yet
	// promoted to the frame heap and wheelStart its start time, +Inf while
	// the wheel is empty, so Run compares each event's time once. A non-empty
	// wheel holds only buckets wheelNext to wheelNext+wheelSlots-1. wheel
	// holds the head entry of each bucket's list, linked through timers;
	// timerFree heads the free entries, chained through next. These fields
	// follow the counters and the bucket heads come last, so the cache lines
	// every event touches are the ones they were without the wheel: layouts
	// that spread them cost BenchmarkEngineThroughput/exact 4–25 %.
	wheelLen   int
	wheelStart float64
	wheelNext  int64
	timerFree  int32
	timers     []timer
	wheel      [wheelSlots]int32
}

// newEngine creates an engine with the clock at zero whose lane delivers lag
// (>= 0, finite) ms after scheduling. The queues' backing arrays are
// pre-sized so short simulations never reallocate them; the callback heap
// holds about one event per arrival stream, so 64 keys cover most runs.
func newEngine(lag float64) *Engine {
	return &Engine{
		events: make(eventHeap, 0, 1024),
		calls:  make(eventHeap, 0, 64),
		slots:  make([]payload, 0, 1024),
		free:   make([]int32, 0, 1024),
		lag:    lag,
		lane:   make([]hopEvent, 256),

		wheelStart: math.Inf(1),
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
func (e *Engine) At(t float64, fn func()) { e.push(&e.calls, t, fn, nil, 0, 0) }

// atFrame delivers a typed event to call frame f at absolute time t.
func (e *Engine) atFrame(t float64, f *Job, kind evKind) { e.push(&e.events, t, nil, f, kind, f.gen) }

// hopFrame delivers a typed event to call frame f one network hop (lag ms)
// from now, through the lane.
func (e *Engine) hopFrame(f *Job, kind evKind) {
	t := e.now + e.lag
	if t < e.laneTail {
		// Cannot happen while lag is fixed; the frame heap is exact for any
		// time.
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

// timeout schedules frame f's evTimeout at absolute time t (the past clamps to
// now). A timer due in a bucket the wheel has not promoted, within its
// horizon, waits there and records its entry in f.timer, from where settling
// unlinks it; any other time goes on the frame heap, which is exact for any
// time.
func (e *Engine) timeout(t float64, f *Job) {
	if t < e.now {
		t = e.now
	}
	start := e.wheelStart
	if e.wheelLen == 0 {
		// The bucket of now is as good as promoted: Run is past its start.
		start = math.Floor(e.now) + 1
	}
	if !(t >= start && t < start+wheelSlots) {
		e.atFrame(t, f, evTimeout)
		return
	}
	e.wheelNext, e.wheelStart = int64(start), start // unchanged unless the wheel was empty
	i := e.timerFree
	if i != 0 {
		e.timerFree = e.timers[i].next
	} else {
		if len(e.timers) == 0 {
			e.timers = make([]timer, 1, 256)
		}
		i = int32(len(e.timers))
		e.timers = append(e.timers, timer{})
	}
	head := &e.wheel[int64(t)&(wheelSlots-1)]
	e.seq++
	tm := &e.timers[i]
	tm.time, tm.seq, tm.f, tm.prev, tm.next = t, e.seq, f, 0, *head
	if *head != 0 {
		e.timers[*head].prev = i
	}
	*head = i
	f.timer = i
	e.wheelLen++
	e.notePending()
}

// unlink takes timer entry i out of its bucket without running it.
func (e *Engine) unlink(i int32) {
	tm := &e.timers[i]
	if tm.prev != 0 {
		e.timers[tm.prev].next = tm.next
	} else {
		e.wheel[int64(tm.time)&(wheelSlots-1)] = tm.next
	}
	if tm.next != 0 {
		e.timers[tm.next].prev = tm.prev
	}
	e.freeTimer(i)
}

// freeTimer returns entry i to the free list.
func (e *Engine) freeTimer(i int32) {
	tm := &e.timers[i]
	tm.f, tm.next = nil, e.timerFree
	e.timerFree = i
	if e.wheelLen--; e.wheelLen == 0 {
		e.wheelStart = math.Inf(1)
	}
}

// promote moves bucket wheelNext's timers onto the frame heap, each under the
// seq it took when scheduled, and advances the wheel by one bucket. It does
// nothing (false) when the wheel is empty or the bucket starts after until.
func (e *Engine) promote(until float64) bool {
	if e.wheelLen == 0 || until < e.wheelStart {
		return false
	}
	head := &e.wheel[e.wheelNext&(wheelSlots-1)]
	for i := *head; i != 0; {
		tm := &e.timers[i]
		f, next := tm.f, tm.next
		f.timer = 0
		slot := e.takeSlot()
		p := &e.slots[slot]
		p.f, p.kind, p.gen = f, evTimeout, f.gen
		e.events.push(heapKey{time: tm.time, seq: tm.seq, slot: slot})
		e.heapPushes++
		e.freeTimer(i)
		i = next
	}
	*head = 0
	e.wheelNext++
	if e.wheelLen > 0 {
		e.wheelStart = float64(e.wheelNext)
	}
	return true
}

// push schedules an event on heap q at time t (the past clamps to now): its
// payload into a free slot, its key onto q.
func (e *Engine) push(q *eventHeap, t float64, fn func(), f *Job, kind evKind, gen uint32) {
	if t < e.now {
		t = e.now
	}
	slot := e.takeSlot()
	p := &e.slots[slot]
	p.fn, p.f, p.kind, p.gen = fn, f, kind, gen
	e.seq++
	q.push(heapKey{time: t, seq: e.seq, slot: slot})
	e.heapPushes++
	e.notePending()
}

// takeSlot returns a payload slot no pending event holds.
func (e *Engine) takeSlot() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.slots = append(e.slots, payload{})
	return int32(len(e.slots) - 1)
}

func (e *Engine) notePending() {
	if n := e.Pending(); n > e.heapPeak {
		e.heapPeak = n
	}
}

// Run processes events in (time, seq) order — at each step the least of the
// lane's head and the two heaps' tops — until every queue is empty or the
// clock passes until (milliseconds). Events scheduled exactly at until are
// executed. Before it runs an event at or after the wheel's next bucket, or
// reaches an until there, it promotes that bucket, so a timer is on the frame
// heap before anything that follows it in the order runs.
func (e *Engine) Run(until float64) {
	for {
		q := &e.events
		if len(e.calls) > 0 && (len(e.events) == 0 ||
			before(e.calls[0].time, e.calls[0].seq, e.events[0].time, e.events[0].seq)) {
			q = &e.calls
		}
		if h := &e.lane[e.laneHead]; e.laneLen > 0 &&
			(len(*q) == 0 || before(h.time, h.seq, (*q)[0].time, (*q)[0].seq)) {
			if h.time >= e.wheelStart && e.promote(until) {
				continue
			}
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
		if len(*q) == 0 || (*q)[0].time >= e.wheelStart {
			// Only the wheel holds events, or none is left, or the wheel's
			// next bucket may hold an earlier one.
			if e.promote(until) {
				continue
			}
			if len(*q) == 0 {
				break
			}
		}
		top := (*q)[0]
		if top.time > until {
			break
		}
		q.pop()
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

// Pending returns the number of queued events, lane + both heaps + wheel (for
// tests and diagnostics). A timer unlinked from the wheel is no longer
// pending.
func (e *Engine) Pending() int {
	return e.laneLen + len(e.events) + len(e.calls) + e.wheelLen
}

// EngineStats is the engine's self-telemetry, reported through the
// simulation Result and mirrored into the erms.self.* namespace by the
// control plane's observability layer. All values are deterministic for a
// fixed seed.
type EngineStats struct {
	// Events is the number of events executed; a timeout unlinked from the
	// wheel when its attempt settled never executes.
	Events int64
	// HeapPeak is the high-water count of pending events, lane + both heaps
	// + wheel.
	HeapPeak int
}

// Stats returns the engine's counters so far.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Events: e.processed, HeapPeak: e.heapPeak}
}
