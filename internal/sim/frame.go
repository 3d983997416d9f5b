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
// with evServed replacing arrive/complete on the fluid path and, under
// resilience, evTimeout racing the attempt, evFail carrying a failure back
// across the network and evRetry starting the next attempt on a fresh frame.
//
// Frames are pooled. A frame holds one reference per pending event that
// targets it, per container queue or in-flight list that holds it, and per
// live child frame (children call back into their parent); it returns to the
// free list when the last reference drops, and not before — a late timeout
// timer, work the client abandoned, or a crash re-route can each outlive the
// call's outcome. The exported fields are what a queueing Policy may read.
type Job struct {
	Service  string
	Priority int     // 0 is highest; only meaningful under PriorityPolicy
	Enqueued float64 // server-receive instant
	// Tier is the SLO tier of the request this call belongs to, inherited
	// from the issuing cohort stream (workload.TierStandard on the untiered
	// Patterns path). Admission control sheds high-factor tiers first.
	Tier workload.Tier

	rt     *Runtime
	svc    *svcState
	node   *callNode
	parent *Job            // the calling frame; nil for a request's root call
	cs     *containerState // the container processing the call

	traceID    int64
	clientSend float64
	// deadline is this attempt's absolute deadline in ms and edgeDeadline the
	// one propagated to the call edge, which every attempt inherits (0 = none;
	// both stay 0 with resilience disabled).
	deadline     float64
	edgeDeadline float64

	gen         uint32 // bumped on release; events carry the value they were scheduled under
	refs        int32
	stage       int32 // downstream stage being executed
	remaining   int32 // calls of that stage still to return
	parentStage int32 // this call's stage index within the parent
	attempt     int32
	err         CallErr // the failure a pending evFail delivers
	sampled     bool
	// settled: the client side of the attempt is decided (response, timeout or
	// failure, whichever came first). bodyDone: the server side is — response
	// sent, or the first downstream failure; later children are ignored (their
	// work is wasted, which is exactly how retry amplification arises).
	// crashed: the container died with the call in flight, so the pending
	// evComplete is stale.
	settled, bodyDone, crashed bool

	// Request state, meaningful on root frames only.
	t0       float64 // request start
	stream   int     // issuing cohort stream, -1 on the untiered path
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
	nf.Service, nf.svc, nf.Tier = f.Service, f.svc, f.Tier
	nf.traceID, nf.sampled = f.traceID, f.sampled
	if nf.parent = parent; parent != nil {
		parent.refs++
	}
	return nf
}

// newChild takes a frame for a call to node c issued by frame f.
func (f *Job) newChild(c *callNode, deadline float64) *Job {
	nf := f.derive(f)
	nf.node, nf.parentStage, nf.edgeDeadline = c, f.stage, deadline
	return nf
}

// nextAttempt takes a frame for the retry of the call edge f attempted.
func (f *Job) nextAttempt() *Job {
	nf := f.derive(f.parent)
	nf.node, nf.parentStage, nf.edgeDeadline = f.node, f.parentStage, f.edgeDeadline
	nf.attempt = f.attempt + 1
	nf.t0, nf.stream, nf.measured, nf.then = f.t0, f.stream, f.measured, f.then
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
		if f.rt.res != nil {
			f.settle(ErrNone)
		} else {
			f.succeed()
		}
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

// call runs the call edge's first attempt: on the infallible path (resilience
// disabled) a single attempt that always completes; with resilience enabled,
// the attempt loop of try/settle.
func (f *Job) call() {
	f.refs++ // the frame has no event yet, and try may fail it on the spot
	if f.rt.res == nil {
		f.issue()
	} else {
		f.try()
	}
	f.unref()
}

// try starts one attempt with deadline propagation, breaker short-circuiting
// and a per-attempt timeout; settle decides whether a failed attempt is
// retried (budgeted, with exponential backoff) or fails the call edge.
func (f *Job) try() {
	rt, edge := f.rt, f.node.edge
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
	if edge.timeoutMs > 0 {
		if d := now + edge.timeoutMs; f.deadline == 0 || d < f.deadline {
			f.deadline = d
		}
	}
	if f.deadline > 0 {
		f.at(f.deadline, evTimeout)
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
	rt, edge := f.rt, f.node.edge
	if br := edge.breaker; br != nil {
		br.record(rt.eng.Now(), err != ErrNone, &rt.data)
	}
	if err == ErrNone {
		if edge.earn > 0 {
			edge.tokens += edge.earn
			if edge.tokens > edge.burst {
				edge.tokens = edge.burst
			}
		}
		f.succeed()
		return
	}
	if int(f.attempt)+1 < edge.maxAttempts && err.retryable() {
		if edge.earn == 0 || edge.tokens >= 1 {
			if edge.earn > 0 {
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
	f.Priority = f.node.prio
	f.hop(evArrive)
}

// arrive routes the call to a container of the microservice per the
// configured balancing policy and starts it if a thread is free. It runs at
// server-receive time and again when a crash re-routes queued work.
func (f *Job) arrive() {
	rt, ms := f.rt, f.node.ms
	// Downed containers are skipped while any replica survives. With none
	// left the behaviour is pinned per fault model: resilience disabled parks
	// the job at the first container until recovery (the historical
	// contract); resilience enabled fails fast with the retryable
	// ErrUnavailable.
	states := ms.up
	if len(states) == 0 {
		if rt.res != nil {
			rt.data.Unavailable++
			f.sendFailure(ErrUnavailable)
			return
		}
		states = ms.states
	}
	var cs *containerState
	switch {
	case len(states) == 1:
		cs = states[0]
	case rt.cfg.Routing == RouteP2C:
		a := states[rt.rng.Intn(len(states))]
		b := states[rt.rng.Intn(len(states))]
		if a.inSystem() <= b.inSystem() {
			cs = a
		} else {
			cs = b
		}
	default: // round-robin (modulo the currently routable set)
		i := ms.rrNext % len(states)
		ms.rrNext = i + 1
		cs = states[i]
	}
	if rt.res != nil {
		if f.settled {
			// The client gave up while the job was re-routed after a crash.
			rt.data.DeadlineSkips++
			return
		}
		if rt.shouldShed(cs, f) {
			rt.data.Shed++
			if f.Tier.Valid() {
				rt.data.ShedByTier[f.Tier]++
			}
			f.sendFailure(ErrShed)
			return
		}
	}
	cs.minuteCalls++
	if rt.eng.Now() >= rt.warmMs {
		*f.node.calls++
	}
	if !cs.down && cs.busy < cs.c.Spec.Threads {
		rt.startJob(cs, f)
		return
	}
	cs.queue = append(cs.queue, f)
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
	rt, cs := f.rt, f.cs
	if rt.res != nil {
		if f.crashed {
			// The container crashed with this job in flight; the crash already
			// failed it. The completion is stale.
			return
		}
		rt.dropInflight(cs, f)
	}
	cs.busy--
	rt.updateUsage(cs)
	f.served()
	if !cs.down {
		rt.kick(cs)
	}
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
				Stage:        int(f.parentStage),
				ClientSend:   f.clientSend,
				ServerRecv:   f.Enqueued,
				ServerSend:   serverSend,
				ClientRecv:   clientRecv,
			}
			if p := f.parent; p != nil {
				rec.ParentMicroservice, rec.ParentNodeID = p.node.ms.name, p.node.id
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
