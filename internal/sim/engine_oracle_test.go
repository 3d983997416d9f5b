package sim

import (
	"fmt"
	"testing"

	"erms/internal/stats"
)

// oracleHeap and oracleEngine are the engine as it was before network hops
// got their own lane: one binary heap for every event, swap-based sift, kept
// verbatim as the reference the two-queue engine is compared against. A hop
// is simply a heap event at now + lag.

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

func (e *oracleEngine) hopFrame(f *Job, kind evKind) {
	e.push(event{time: e.now + e.lag, f: f, kind: kind, gen: f.gen})
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
	hopFrame(f *Job, kind evKind)
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
	rt     *Runtime // owner of the hop frames; its engine is never run
	svc    svcState
	nextID int
	budget int      // events the program may still schedule
	log    []string // "time id" per executed event
}

// onHop puts fn behind a lane event: a root frame whose response (evReturn)
// crosses the network and runs the request's continuation.
func (p *laneProgram) onHop(fn func()) {
	f := &Job{rt: p.rt, svc: &p.svc, stream: -1, refs: 1, then: fn}
	p.eng.hopFrame(f, evReturn)
}

// spawn schedules one event that, when it runs, logs itself and schedules one
// to fanout more (none if fanout is 0) — on the heap or the lane, at times chosen to collide. Each
// spawn is exactly one push, so id+1 is the seq both engines give the event
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
	switch p.rng.Intn(8) {
	case 0, 1, 2:
		p.onHop(body)
	case 3:
		// Exactly the lane's delivery time, from the heap: a tie that seq
		// alone decides, in whichever order the neighbours were pushed.
		p.eng.At(now+p.lag, body)
	case 4:
		p.eng.At(now-1, body) // the past clamps to now
	case 5:
		p.eng.At(now, body)
	case 6:
		// A multiple of the lag: collides with hops scheduled later.
		p.eng.At(now+p.lag*float64(1+p.rng.Intn(3)), body)
	default:
		p.eng.At(now+p.rng.Float64()*3*(p.lag+0.5), body)
	}
}

// run replays the program in short Run calls whose boundaries fall before,
// on and between pending events, recording Pending after each.
func (p *laneProgram) run() (log []string, pending []int, st EngineStats) {
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
		pending = append(pending, p.eng.Pending())
	}
	p.eng.Run(1e18)
	pending = append(pending, p.eng.Pending())
	return p.log, pending, p.eng.Stats()
}

func newLaneProgram(eng scheduler, seed uint64, lag float64) *laneProgram {
	return &laneProgram{
		eng: eng, rng: stats.NewRNG(seed), lag: lag,
		rt: &Runtime{eng: NewEngine()}, budget: 2000,
	}
}

// TestLaneMatchesHeapOracle replays seeded random programs — heap pushes,
// lane pushes, nested scheduling from inside handlers of both, exact time
// ties between the queues in both seq orders, a zero lag, past times, Run
// boundaries anywhere — on the two-queue engine and on the one-heap oracle,
// and requires the same events at the same times in the same order, the same
// Pending after every Run, and the same Stats.
func TestLaneMatchesHeapOracle(t *testing.T) {
	grew := 0
	for _, lag := range []float64{0, 0.05, 1, 7.25} {
		for seed := uint64(1); seed <= 40; seed++ {
			wantLog, wantPending, wantStats := newLaneProgram(&oracleEngine{lag: lag}, seed, lag).run()
			eng := newEngine(lag)
			gotLog, gotPending, gotStats := newLaneProgram(eng, seed, lag).run()

			if len(wantLog) < 100 {
				t.Fatalf("lag %v seed %d: program ran only %d events", lag, seed, len(wantLog))
			}
			for i := range wantLog {
				if i >= len(gotLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("lag %v seed %d: event %d differs from the oracle\n got %v\nwant %v",
						lag, seed, i, tail(gotLog, i), tail(wantLog, i))
				}
			}
			if len(gotLog) != len(wantLog) {
				t.Fatalf("lag %v seed %d: ran %d events, oracle %d", lag, seed, len(gotLog), len(wantLog))
			}
			if fmt.Sprint(gotPending) != fmt.Sprint(wantPending) {
				t.Fatalf("lag %v seed %d: Pending after each Run\n got %v\nwant %v", lag, seed, gotPending, wantPending)
			}
			if gotStats != wantStats {
				t.Fatalf("lag %v seed %d: Stats %+v, oracle %+v", lag, seed, gotStats, wantStats)
			}
			if eng.heapPushes == gotStats.Events || eng.heapPushes == 0 {
				t.Fatalf("lag %v seed %d: %d of %d events on the heap; the program must mix both queues",
					lag, seed, eng.heapPushes, gotStats.Events)
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
