package sim

import "erms/internal/workload"

// Job is one attempt of one call in a request's call tree — the call frame.
// It carries everything the call needs from issue to return (whose request it
// belongs to, where in the dependency graph it sits, which frame called it,
// its timestamps, deadline and downstream-stage cursor) and is driven as a
// state machine by typed engine events:
//
//	issue → evArrive → (queue →) evComplete → downstream stages → evReturn
//
// with evServed replacing arrive/complete on the fluid path, evTimeout racing
// an attempt that has a deadline, evFail carrying a failure back across the
// network and evRetry starting the next attempt on a fresh frame.
//
// Frames are pooled. A frame holds one reference per pending event that
// targets it, per container queue that holds it, and per live child frame
// (children call back into their parent); it returns to the free list when
// the last reference drops, and not before — a timeout timer already on the
// heap, work the client abandoned, or a crash re-route can each outlive the
// call's outcome.
type Job struct {
	Service  string
	Enqueued float64 // server-receive instant
	// Tier is the SLO tier of the request this call belongs to, inherited
	// from the issuing source (workload.TierStandard for a Config.Patterns
	// entry). Admission control sheds high-factor tiers first.
	Tier workload.Tier

	rt     *Runtime
	node   *callNode
	parent *Job            // the calling frame; nil for a request's root call
	cs     *containerState // the container processing the call
	next   *Job            // the job behind this one in its container queue band
	seq    int64           // arrival stamp in that container queue

	traceID    int64
	clientSend float64
	// deadline is this attempt's absolute deadline in ms and edgeDeadline the
	// one propagated to the call edge, which every attempt inherits (0 =
	// none).
	deadline     float64
	edgeDeadline float64

	gen       uint32 // bumped on release; events carry the value they were scheduled under
	refs      int32
	stage     int32 // downstream stage being executed
	remaining int32 // calls of that stage still to return
	attempt   int32
	timer     int32   // the attempt's timeout entry while it waits in the wheel, else 0
	err       CallErr // the failure a pending evFail delivers
	sampled   bool
	// settled: the client side of the attempt is decided (response, timeout or
	// failure, whichever came first). bodyDone: the server side is — response
	// sent, or the first downstream failure; later children are ignored (their
	// work is wasted, which is exactly how retry amplification arises).
	// crashed: the container died with the call in flight, so the pending
	// evComplete is stale.
	settled, bodyDone, crashed bool

	// Request state, meaningful on root frames only.
	t0       float64 // request start
	src      int     // issuing source: an index into Runtime.sources
	measured bool
	then     func() // closed-loop continuation, run once the request ends
}

// newFrame takes a zeroed frame from the free list (or the heap).
func (rt *Runtime) newFrame() *Job {
	if n := len(rt.jobFree); n > 0 {
		f := rt.jobFree[n-1]
		rt.jobFree = rt.jobFree[:n-1]
		return f
	}
	rt.jobsAllocated++
	return &Job{rt: rt}
}

// derive takes a frame for another call of f's request — a downstream call
// or a retry — that reports to parent.
func (f *Job) derive(parent *Job) *Job {
	nf := f.rt.newFrame()
	nf.Service, nf.Tier = f.Service, f.Tier
	nf.traceID, nf.sampled = f.traceID, f.sampled
	if nf.parent = parent; parent != nil {
		parent.refs++
	}
	return nf
}

// newChild takes a frame for a call to node c issued by frame f.
func (f *Job) newChild(c *callNode, deadline float64) *Job {
	nf := f.derive(f)
	nf.node, nf.edgeDeadline = c, deadline
	return nf
}

// nextAttempt takes a frame for the retry of the call edge f attempted.
func (f *Job) nextAttempt() *Job {
	nf := f.derive(f.parent)
	nf.node, nf.edgeDeadline = f.node, f.edgeDeadline
	nf.attempt = f.attempt + 1
	nf.t0, nf.src, nf.measured, nf.then = f.t0, f.src, f.measured, f.then
	return nf
}

// unref drops one reference; the last one recycles the frame and, in turn,
// releases its hold on the parent.
func (f *Job) unref() {
	f.refs--
	if f.refs > 0 {
		return
	}
	rt, p, gen := f.rt, f.parent, f.gen
	*f = Job{rt: rt, gen: gen + 1}
	rt.jobFree = append(rt.jobFree, f)
	rt.jobsRecycled++
	if p != nil {
		p.unref()
	}
}

// at schedules a typed event for the frame at absolute time t.
func (f *Job) at(t float64, kind evKind) {
	f.refs++
	f.rt.eng.atFrame(t, f, kind)
}

// after schedules a typed event delay (>= 0) ms from now.
func (f *Job) after(delay float64, kind evKind) {
	if delay < 0 {
		delay = 0
	}
	f.at(f.rt.eng.now+delay, kind)
}

// hop schedules a typed event one network hop from now.
func (f *Job) hop(kind evKind) {
	f.refs++
	f.rt.eng.hopFrame(f, kind)
}

// handle runs one typed event, then drops the reference the event held.
func (f *Job) handle(kind evKind, gen uint32) {
	if gen != f.gen {
		panic("sim: event delivered to a recycled call frame")
	}
	switch kind {
	case evArrive:
		f.arrive()
	case evComplete:
		f.complete()
	case evServed:
		f.served()
	case evReturn:
		f.settle(ErrNone)
	case evFail:
		f.settle(f.err)
	case evTimeout:
		if !f.settled {
			f.rt.data.Timeouts++
			f.settle(ErrTimeout)
		}
	case evRetry:
		f.try()
	}
	f.unref()
}

// call starts the call edge's attempt loop (try, then settle) with its first
// attempt.
func (f *Job) call() {
	f.refs++ // the frame has no event yet, and try may fail it on the spot
	f.try()
	f.unref()
}

// try starts one attempt with deadline propagation, breaker short-circuiting
// and a per-attempt timeout; settle decides whether a failed attempt is
// retried (budgeted, with exponential backoff) or fails the call edge.
func (f *Job) try() {
	rt, edge := f.rt, &f.node.edgeState
	now := rt.eng.Now()
	// Deadline propagation: if the request cannot even reach the server
	// before its propagated deadline, fail without executing.
	if f.edgeDeadline > 0 && now+rt.cfg.NetworkDelayMs >= f.edgeDeadline {
		rt.data.DeadlineSkips++
		f.fail(ErrDeadline)
		return
	}
	if br := edge.breaker; br != nil && !br.allow(now) {
		rt.data.BreakerShortCircuits++
		f.fail(ErrBreakerOpen)
		return
	}
	f.deadline = f.edgeDeadline
	if rt.res.AttemptTimeoutMs > 0 {
		if d := now + rt.res.AttemptTimeoutMs; f.deadline == 0 || d < f.deadline {
			f.deadline = d
		}
	}
	if f.deadline > 0 {
		f.refs++
		rt.eng.timeout(f.deadline, f)
	}
	rt.data.Attempts++
	f.issue()
}

// settle decides the client side of the attempt: the first of {response,
// timeout, failure} to arrive wins; everything later (including the server
// finishing work the client abandoned) is ignored.
func (f *Job) settle(err CallErr) {
	if f.settled {
		return
	}
	f.settled = true
	f.stopTimer()
	rt, edge := f.rt, &f.node.edgeState
	if br := edge.breaker; br != nil {
		br.record(rt.eng.Now(), err != ErrNone, &rt.data)
	}
	if err == ErrNone {
		if rt.res.RetryBudget > 0 {
			edge.tokens += rt.res.RetryBudget
			if edge.tokens > rt.res.RetryBurst {
				edge.tokens = rt.res.RetryBurst
			}
		}
		f.succeed()
		return
	}
	if int(f.attempt)+1 < rt.res.MaxAttempts && err.retryable() {
		if rt.res.RetryBudget == 0 || edge.tokens >= 1 {
			if rt.res.RetryBudget > 0 {
				edge.tokens--
			}
			backoff := rt.res.RetryBackoffMs * float64(uint(1)<<uint(f.attempt))
			if rt.res.RetryJitter > 0 {
				backoff *= 1 + rt.res.RetryJitter*rt.rng.Float64()
			}
			rt.data.Retries++
			f.nextAttempt().after(backoff, evRetry)
			return
		}
		rt.data.RetryBudgetExhausted++
	}
	f.fail(err)
}

// stopTimer unlinks the attempt's timeout from the wheel, if it still waits
// there, and drops the reference it held: once the attempt has settled the
// timer could only find it settled. A timer already promoted to the frame
// heap stays, and fires as a no-op.
func (f *Job) stopTimer() {
	if f.timer != 0 {
		f.rt.eng.unlink(f.timer)
		f.timer = 0
		f.unref()
	}
}

// succeed reports the call edge's success to whoever issued it.
func (f *Job) succeed() {
	if p := f.parent; p != nil {
		p.childDone()
	} else {
		f.rt.requestDone(f)
	}
}

// fail reports the call edge's final failure to whoever issued it.
func (f *Job) fail(err CallErr) {
	if p := f.parent; p != nil {
		p.childFailed(err)
	} else {
		f.rt.requestFailed(f, err)
	}
}

// issue sends one attempt: it reaches a container of the node's microservice
// one network hop from now — or, on the fluid path, is served analytically.
func (f *Job) issue() {
	rt := f.rt
	f.clientSend = rt.eng.Now()
	f.Enqueued = f.clientSend + rt.cfg.NetworkDelayMs
	if f.node.ms.fluid {
		f.issueFluid()
		return
	}
	f.hop(evArrive)
}

// arrive routes the call round-robin to a container of the microservice that
// is up and starts it if a thread is free. It runs at server-receive time and
// again when a crash re-routes queued work. With no container up the call
// fails fast with the retryable ErrUnavailable.
func (f *Job) arrive() {
	rt, ms := f.rt, f.node.ms
	states := ms.up
	if len(states) == 0 {
		rt.data.Unavailable++
		f.sendFailure(ErrUnavailable)
		return
	}
	cs := states[0]
	if len(states) > 1 { // round-robin (modulo the currently routable set)
		i := ms.rrNext % len(states)
		ms.rrNext = i + 1
		cs = states[i]
	}
	if f.settled {
		// The client gave up while the job was re-routed after a crash.
		rt.data.DeadlineSkips++
		return
	}
	if rt.res.Shed && rt.shouldShed(cs, f) {
		rt.data.Shed++
		if f.Tier.Valid() {
			rt.data.ShedByTier[f.Tier]++
		}
		f.sendFailure(ErrShed)
		return
	}
	cs.minuteCalls++
	if cs.busy < cs.c.Spec.Threads {
		rt.startJob(cs, f)
		return
	}
	cs.queue.push(f)
	f.refs++
}

// sendFailure delivers a server-side failure (shed, crash, unavailable, a
// failed downstream call) to the client attempt; it still crosses the network
// back.
func (f *Job) sendFailure(err CallErr) {
	f.err = err
	f.hop(evFail)
}

// complete ends the call's own processing: free the thread, run the served
// body, and start queued work on the freed thread.
func (f *Job) complete() {
	if f.crashed {
		// The container crashed with this job in flight; the crash already
		// failed it. The completion is stale.
		return
	}
	rt, cs := f.rt, f.cs
	cs.busy--
	rt.updateUsage(cs)
	f.served()
	rt.kick(cs)
}

// served runs when the call's own work is done — on a container thread
// (complete) or at the analytically drawn instant (fluid path): record the
// microservice latency (queue + processing), then execute downstream stages.
func (f *Job) served() {
	f.rt.recordNodeLatency(f.node.ms, f.rt.eng.Now()-f.Enqueued)
	f.runStage()
}

// runStage issues the calls of the current downstream stage in parallel
// (stages run sequentially); past the last stage it emits the sampled span
// and sends the response, which resumes the caller one network hop later.
func (f *Job) runStage() {
	rt, node := f.rt, f.node
	if int(f.stage) >= len(node.stages) {
		serverSend := rt.eng.Now()
		clientRecv := serverSend + rt.cfg.NetworkDelayMs
		if f.sampled && !f.settled {
			rec := CallRecord{
				TraceID:      f.traceID,
				Service:      f.Service,
				Microservice: node.ms.name,
				NodeID:       node.id,
				ParentNodeID: -1,
				ClientSend:   f.clientSend,
				ServerRecv:   f.Enqueued,
				ServerSend:   serverSend,
				ClientRecv:   clientRecv,
			}
			if p := f.parent; p != nil {
				rec.ParentNodeID = p.node.id
			}
			rt.cfg.Observer.ObserveCall(rec)
		}
		f.bodyDone = true
		f.hop(evReturn)
		return
	}
	var childDeadline float64
	if f.deadline > 0 {
		// The response still needs one network hop after the children
		// complete.
		childDeadline = f.deadline - rt.cfg.NetworkDelayMs
	}
	kids := node.stages[f.stage]
	f.remaining = int32(len(kids))
	for _, c := range kids {
		f.newChild(c, childDeadline).call()
	}
}

// childDone counts one returned call of the current stage.
func (f *Job) childDone() {
	if f.bodyDone {
		return
	}
	f.remaining--
	if f.remaining == 0 {
		f.stage++
		f.runStage()
	}
}

// childFailed fails the call on its first downstream failure; the failure
// crosses the network back to the client attempt.
func (f *Job) childFailed(err CallErr) {
	if f.bodyDone {
		return
	}
	f.bodyDone = true
	f.sendFailure(err)
}
