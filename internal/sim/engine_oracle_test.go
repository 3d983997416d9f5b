package sim

import (
	"fmt"
	"math"
	"testing"

	"erms/internal/stats"
)

// oracleHeap and oracleEngine are the engine as it was before network hops
// got their own lane, timeouts their wheel and callbacks their heap: one
// binary heap for every event, swap-based sift, kept verbatim as the
// reference the engine is compared against. A hop is simply a heap event at
// now + lag, a typed frame event and a callback share the one heap, and a
// timeout is a heap event that, cancelled, pops as a no-op (lazy deletion).

type oracleHeap []event

func (h oracleHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq // stable FIFO for simultaneous events
}

func (h *oracleHeap) push(e event) {
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

func (h *oracleHeap) pop() event {
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

type oracleEngine struct {
	now    float64
	seq    int64
	events oracleHeap
	lag    float64

	processed int64
	heapPeak  int
}

func (e *oracleEngine) Now() float64 { return e.now }

func (e *oracleEngine) At(t float64, fn func()) { e.push(event{time: t, fn: fn}) }

func (e *oracleEngine) atFrame(t float64, f *Job, kind evKind) {
	e.push(event{time: t, f: f, kind: kind, gen: f.gen})
}

func (e *oracleEngine) hopFrame(f *Job, kind evKind) {
	e.push(event{time: e.now + e.lag, f: f, kind: kind, gen: f.gen})
}

func (e *oracleEngine) timeout(t float64, f *Job) {
	e.push(event{time: t, f: f, kind: evTimeout, gen: f.gen})
}

func (e *oracleEngine) push(ev event) {
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

func (e *oracleEngine) Run(until float64) {
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

func (e *oracleEngine) Pending() int { return len(e.events) }

func (e *oracleEngine) Stats() EngineStats {
	return EngineStats{Events: e.processed, HeapPeak: e.heapPeak}
}

// scheduler is what a random program needs of either engine.
type scheduler interface {
	Now() float64
	At(t float64, fn func())
	atFrame(t float64, f *Job, kind evKind)
	hopFrame(f *Job, kind evKind)
	timeout(t float64, f *Job)
	Run(until float64)
	Pending() int
	Stats() EngineStats
}

// laneProgram is one seeded random schedule, replayed identically on any
// scheduler: every event draws from the program's own RNG when it runs, so
// two engines that execute events in the same order see the same program,
// and the first divergence in order derails everything after it.
type laneProgram struct {
	eng    scheduler
	rng    *stats.RNG
	lag    float64
	rt     *Runtime // owner of the hop frames and their one source; its engine is never run
	nextID int
	budget int      // events the program may still schedule
	log    []string // "time id" per executed event

	// With timers set the program also arms attempt timeouts and cancels
	// some of them before they fire, as settling an attempt does. Timer
	// frames belong to trt, a one-attempt resilient runtime whose engine is
	// the one under test, so a cancel unlinks from its wheel; armed holds
	// the timers neither fired nor cancelled.
	timers bool
	trt    *Runtime
	node   callNode
	armed  []*Job

	// What the engine did with the timers (meaningless on the oracle, which
	// has no wheel): entered the wheel or went straight to the heap; unlinked
	// on cancel, or cancelled after promotion and left to pop as a no-op.
	wheeled, direct, unlinked, lateCancels int
}

// programRun is what a replay observed.
type programRun struct {
	log     []string
	pending []int     // Pending after each Run
	clock   []float64 // Now after each Run
	stats   EngineStats
}

// onHop puts fn behind a lane event: a root frame whose response (evReturn)
// crosses the network and runs the request's continuation.
func (p *laneProgram) onHop(fn func()) {
	f := &Job{rt: p.rt, node: &p.node, refs: 1, then: fn}
	p.eng.hopFrame(f, evReturn)
}

// onFrame puts fn behind a typed frame event at absolute time t, on the frame
// heap: the same root frame as onHop's, its response delivered at t.
func (p *laneProgram) onFrame(t float64, fn func()) {
	f := &Job{rt: p.rt, node: &p.node, refs: 1, then: fn}
	p.eng.atFrame(t, f, evReturn)
}

// arm puts fn behind an attempt timeout: when it fires, the unsettled
// one-attempt frame fails its request, which runs the continuation. The due
// time lands inside the wheel's horizon, past it, in the bucket of now, on a
// lane event's time, on a bucket's start (where case 8 of spawn puts heap
// events) or in the past.
func (p *laneProgram) arm(fn func()) {
	now := p.eng.Now()
	var t float64
	switch p.rng.Intn(6) {
	case 0:
		t = now + p.rng.Float64()*wheelSlots
	case 1:
		t = now + wheelSlots + p.rng.Float64()*2*wheelSlots
	case 2:
		t = now + p.rng.Float64()*(math.Floor(now)+1-now)
	case 3:
		t = now + p.lag
	case 4:
		t = math.Ceil(now) + float64(p.rng.Intn(3))
	default:
		t = now - 1 // the past clamps to now
	}
	f := &Job{rt: p.trt, node: &p.node, refs: 1}
	f.then = func() {
		p.drop(f)
		fn()
	}
	p.eng.timeout(t, f)
	if f.timer != 0 {
		p.wheeled++
	} else {
		p.direct++
	}
	p.armed = append(p.armed, f)
}

// drop removes f from armed.
func (p *laneProgram) drop(f *Job) {
	for i, a := range p.armed {
		if a == f {
			p.armed[i] = p.armed[len(p.armed)-1]
			p.armed = p.armed[:len(p.armed)-1]
			return
		}
	}
}

// cancelOne settles a random armed timer's attempt, as a response or failure
// beating the timeout would.
func (p *laneProgram) cancelOne() {
	f := p.armed[p.rng.Intn(len(p.armed))]
	p.drop(f)
	if f.timer != 0 {
		p.unlinked++
	} else {
		p.lateCancels++
	}
	f.settled = true
	f.stopTimer()
}

// spawn schedules one event that, when it runs, logs itself and schedules one
// to fanout more (none if fanout is 0) — on the lane, as a callback or a
// typed frame event (one heap each on the engine, one heap for both on the
// oracle) or, with timers, as a timeout, at times chosen to collide. Each
// spawn is exactly one push, so id+1 is the seq every engine gives the event
// and the log line is its (time, seq).
func (p *laneProgram) spawn(fanout int) {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.nextID
	p.nextID++
	body := func() {
		p.log = append(p.log, fmt.Sprintf("%v %d", p.eng.Now(), id))
		if p.timers && len(p.armed) > 0 && p.rng.Intn(3) > 0 {
			p.cancelOne()
		}
		if fanout == 0 {
			return
		}
		if p.rng.Intn(100) == 0 {
			// A flood outgrows the lane's first ring while its head is
			// somewhere in the middle.
			for i := 0; i < 300; i++ {
				p.spawn(0)
			}
		}
		for k := 1 + p.rng.Intn(fanout); k > 0; k-- {
			p.spawn(fanout)
		}
	}
	now := p.eng.Now()
	at := p.eng.At
	if p.rng.Intn(2) == 0 {
		at = p.onFrame
	}
	kinds := 8
	if p.timers {
		kinds = 12
	}
	switch p.rng.Intn(kinds) {
	case 0, 1, 2:
		p.onHop(body)
	case 3:
		// Exactly the lane's delivery time, from a heap: a tie that seq
		// alone decides, in whichever order the neighbours were pushed.
		at(now+p.lag, body)
	case 4:
		at(now-1, body) // the past clamps to now
	case 5:
		at(now, body)
	case 6:
		// A multiple of the lag: collides with hops scheduled later.
		at(now+p.lag*float64(1+p.rng.Intn(3)), body)
	case 7:
		at(now+p.rng.Float64()*3*(p.lag+0.5), body)
	case 8:
		// A bucket's start: collides with timers due there.
		at(math.Ceil(now)+float64(p.rng.Intn(3)), body)
	default:
		p.arm(body)
	}
}

// run replays the program in short Run calls whose boundaries fall before,
// on and between pending events, recording Pending and Now after each.
func (p *laneProgram) run() programRun {
	var r programRun
	record := func() {
		r.pending = append(r.pending, p.eng.Pending())
		r.clock = append(r.clock, p.eng.Now())
	}
	for i := 0; i < 8; i++ {
		p.spawn(2)
	}
	for step := 0; step < 400 && (p.eng.Pending() > 0 || step < 4); step++ {
		var until float64
		switch now := p.eng.Now(); p.rng.Intn(4) {
		case 0:
			until = now - 1 // before everything: runs nothing, keeps the clock
		case 1:
			until = now + p.lag // on the head of a lane filled at now
		case 2:
			until = now + p.lag/2
		default:
			until = now + p.rng.Float64()*2*(p.lag+0.5)
		}
		p.eng.Run(until)
		record()
	}
	p.eng.Run(1e18)
	record()
	r.log, r.stats = p.log, p.eng.Stats()
	return r
}

func newLaneProgram(eng scheduler, seed uint64, lag float64, timers bool) *laneProgram {
	p := &laneProgram{
		eng: eng, rng: stats.NewRNG(seed), lag: lag,
		rt: &Runtime{eng: newEngine(0), sources: make([]source, 1)}, budget: 2000,
		timers: timers,
		trt:    &Runtime{res: Resilience{MaxAttempts: 1}, sources: make([]source, 1)},
	}
	if e, ok := eng.(*Engine); ok {
		p.trt.eng = e
	}
	return p
}

// sameLog fails the test at the first event where got and want differ.
func sameLog(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(want) < 100 {
		t.Fatalf("%s: program ran only %d events", name, len(want))
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s: event %d differs from the oracle\n got %v\nwant %v", name, i, tail(got, i), tail(want, i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: ran %d events, oracle %d", name, len(got), len(want))
	}
}

// TestLaneMatchesHeapOracle replays seeded random programs — callbacks and
// typed frame events on their two heaps, lane pushes, nested scheduling from
// inside handlers of all three, exact time ties between the queues in both
// seq orders, a zero lag, past times, Run boundaries anywhere — on the engine
// and on the one-heap oracle, and requires the same events at the same times
// in the same order, the same Pending and clock after every Run, and the same
// Stats.
func TestLaneMatchesHeapOracle(t *testing.T) {
	grew := 0
	for _, lag := range []float64{0, 0.05, 1, 7.25} {
		for seed := uint64(1); seed <= 40; seed++ {
			name := fmt.Sprintf("lag %v seed %d", lag, seed)
			want := newLaneProgram(&oracleEngine{lag: lag}, seed, lag, false).run()
			eng := newEngine(lag)
			got := newLaneProgram(eng, seed, lag, false).run()

			sameLog(t, name, got.log, want.log)
			if fmt.Sprint(got.pending, got.clock) != fmt.Sprint(want.pending, want.clock) {
				t.Fatalf("%s: Pending and Now after each Run\n got %v %v\nwant %v %v",
					name, got.pending, got.clock, want.pending, want.clock)
			}
			if got.stats != want.stats {
				t.Fatalf("%s: Stats %+v, oracle %+v", name, got.stats, want.stats)
			}
			if eng.heapPushes == got.stats.Events || eng.heapPushes == 0 {
				t.Fatalf("%s: %d of %d events on the heap; the program must mix both queues",
					name, eng.heapPushes, got.stats.Events)
			}
			if len(eng.lane) > 256 {
				grew++
			}
		}
	}
	if grew == 0 {
		t.Fatal("no program outgrew the lane's first ring")
	}
}

// TestWheelMatchesHeapOracle replays the same programs with attempt timeouts
// mixed in: timers inside the wheel's horizon and past it, in the bucket of
// now, tied with lane events and with heap events on a bucket's start, and
// two in three handlers cancelling a random armed timer. Against the one-heap
// oracle with lazy deletion, the engine must run the same events at the same
// times in the same order — a cancelled timer runs on neither — with the same
// clock after every Run. It may hold fewer pending events (the timers it
// unlinked) and executes exactly that many fewer: a timer cancelled after its
// bucket was promoted still pops as a no-op.
func TestWheelMatchesHeapOracle(t *testing.T) {
	var wheeled, direct, unlinked, late int
	for _, lag := range []float64{0, 0.05, 1, 7.25} {
		for seed := uint64(1); seed <= 40; seed++ {
			name := fmt.Sprintf("lag %v seed %d", lag, seed)
			want := newLaneProgram(&oracleEngine{lag: lag}, seed, lag, true).run()
			eng := newEngine(lag)
			p := newLaneProgram(eng, seed, lag, true)
			got := p.run()

			sameLog(t, name, got.log, want.log)
			if fmt.Sprint(got.clock) != fmt.Sprint(want.clock) {
				t.Fatalf("%s: Now after each Run\n got %v\nwant %v", name, got.clock, want.clock)
			}
			for i := range want.pending {
				if got.pending[i] > want.pending[i] {
					t.Fatalf("%s: %d pending after Run %d, oracle %d", name, got.pending[i], i, want.pending[i])
				}
			}
			if n := len(got.pending) - 1; got.pending[n] != 0 || eng.wheelLen != 0 {
				t.Fatalf("%s: %d pending (%d in the wheel) after the last Run", name, got.pending[n], eng.wheelLen)
			}
			if got.stats.Events != want.stats.Events-int64(p.unlinked) {
				t.Fatalf("%s: ran %d events, oracle %d with %d timers unlinked",
					name, got.stats.Events, want.stats.Events, p.unlinked)
			}
			wheeled, direct, unlinked, late = wheeled+p.wheeled, direct+p.direct, unlinked+p.unlinked, late+p.lateCancels
		}
	}
	t.Logf("%d timers wheeled, %d straight to the heap; %d unlinked, %d cancelled after promotion",
		wheeled, direct, unlinked, late)
	if wheeled == 0 || direct == 0 || unlinked == 0 || late == 0 {
		t.Fatal("the programs miss a path of the wheel")
	}
}

// tail returns the few log entries ending at index i.
func tail(log []string, i int) []string {
	lo, hi := i-3, i+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(log) {
		hi = len(log)
	}
	return log[lo:hi]
}
