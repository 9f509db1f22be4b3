package mpi

import (
	"fmt"

	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/vtime"
)

// Rank is one simulated MPI process. All methods must be called from the
// rank's own coroutine (the function passed to World.Run); the runtime
// enforces MPI's process-local semantics this way.
type Rank struct {
	world *World
	rank  int
	clock vtime.Clock
	noise *perfmodel.Noise

	// The rank's coroutine: World.Run resumes it with next and ends it
	// with stop, and the rank hands control back with yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// Scheduler state: queued while the rank sits in the run queue, parked
	// while it is suspended in waitCond.
	queued bool
	parked bool

	jitter   float64 // run-to-run computation speed factor (1 = nominal)
	straggle float64 // fault-injected computation slowdown (1 = nominal)

	nextReqID int
	seqs      []int // collective sequence numbers by communicator id

	// call is the rank's reused Call: every MPI method fills it in place
	// of allocating one, which is sound because no Interceptor keeps the
	// pointer past AfterCall (see Interceptor).
	call Call
	// curCall is the MPI call the rank is currently inside (set by
	// beginCall, read only from the rank's own coroutine); the deadlock
	// detector's pending-operation records are built from it.
	curCall *Call
	// reqs is the rank's request slab: slot i's request is allocated once
	// and then reused by every request the slot holds. freeSlots lists the
	// slots whose request was freed, and anyReqs is Waitany's scratch for
	// the requests its handles resolve to. Only the rank's own coroutine
	// touches them.
	reqs      []*request
	freeSlots []int32
	anyReqs   []*request

	// state is how the rank's coroutine ended, set once by rankExit;
	// wait is what the rank waits for while parked. Run's drain verdict
	// and the deadline report read both.
	state rankState
	wait  waitDesc

	// accumulated results
	commTime     vtime.Duration
	computeTime  vtime.Duration
	computeTotal perfmodel.Counters
	calls        int
}

// Rank reports this process's rank in the world communicator.
func (r *Rank) Rank() int { return r.rank }

// Size reports the world size.
func (r *Rank) Size() int { return r.world.cfg.Size }

// World returns the communicator containing all ranks (MPI_COMM_WORLD).
func (r *Rank) World() *Comm { return r.world.world }

// Now reports the rank's current virtual time.
func (r *Rank) Now() vtime.Time { return r.clock.Now() }

// Platform reports the hardware platform model this rank executes on.
func (r *Rank) Platform() *platform.Platform { return r.world.cfg.Platform }

// AddOverhead advances the rank's clock by d without counting it as either
// communication or computation. The tracing layer uses this to charge its
// own instrumentation cost, which is how the paper's "overhead" column is
// measured.
func (r *Rank) AddOverhead(d vtime.Duration) { r.clock.Advance(d) }

// Compute executes a computation region described by an abstract operation
// mix. The region's hardware counters are measured through the platform's
// performance model (with this rank's noise stream) and the clock advances
// by the measured cycle count. This is the boundary the tracer observes as a
// virtual MPI_Compute call.
func (r *Rank) Compute(k perfmodel.Kernel) perfmodel.Counters {
	start := r.clock.Now()
	c := perfmodel.MeasureNoisy(r.world.cfg.Platform, k, r.noise)
	// Counters are counts and stay exact; the jitter models frequency
	// wobble, which moves wall time but not retired-event counts. A
	// fault-injected straggler factor slows wall time the same way.
	dt := vtime.Duration(r.world.cfg.Platform.CyclesToSeconds(c[perfmodel.CYC]) * r.jitter * r.straggle)
	r.clock.Advance(dt)
	r.checkDeadline()
	r.computeTime += dt
	r.computeTotal.Add(c)
	if ic := r.world.cfg.Interceptor; ic != nil {
		ic.OnCompute(r, k, c, start, r.clock.Now())
	}
	return c
}

// Elapse advances the rank's clock by a fixed duration, modelling an
// untimed pause. Sleep-based proxy replays (the ScalaBench baseline) use it:
// unlike Compute, its duration is platform-independent by construction.
func (r *Rank) Elapse(d vtime.Duration) {
	start := r.clock.Now()
	r.clock.Advance(d)
	r.checkDeadline()
	r.computeTime += d
	if ic := r.world.cfg.Interceptor; ic != nil {
		ic.OnCompute(r, perfmodel.Kernel{}, perfmodel.Counters{}, start, r.clock.Now())
	}
}

// newRequest takes a slot from the rank's slab for a fresh request,
// stamped with the creating call's name and communicator for deadlock
// diagnostics. Ids stay dense and deterministic however slots are reused,
// so deadlock reports and the recorder's pool renaming do not change.
func (r *Rank) newRequest(kind int) *request {
	var req *request
	if n := len(r.freeSlots); n > 0 {
		req = r.reqs[r.freeSlots[n-1]]
		r.freeSlots = r.freeSlots[:n-1]
	} else {
		req = &request{slot: int32(len(r.reqs)), gen: 1}
		r.reqs = append(r.reqs, req)
	}
	// Field by field rather than by a composite literal, which the
	// compiler builds on the stack and copies: every field but slot and
	// gen is set.
	req.id, req.kind, req.owner = r.nextReqID, kind, r.rank
	req.done, req.time, req.st, req.nul = false, 0, Status{}, false
	req.op, req.peer, req.tag, req.commID = 0, NoPeer, AnyTag, -1
	req.persistent, req.matchedSrc, req.matchedSeq = nil, 0, 0
	r.nextReqID++
	if c := r.curCall; c != nil {
		req.op = c.Func
		if c.Comm != nil {
			req.commID = c.Comm.id
		}
	}
	return req
}

// handle returns the caller's handle to req.
func (r *Rank) handle(req *request) Req {
	return Req{rank: r, slot: req.slot, gen: req.gen, id: req.id}
}

// freeRequest puts req's slot back on the free list and bumps its
// generation, so every handle to req goes stale. The router must hold no
// reference to req: it drops its own when the request completes, and
// RequestFree detaches a request still in flight first.
func (r *Rank) freeRequest(req *request) {
	slot, gen := req.slot, req.gen+1
	if releaseHook != nil {
		releaseHook(req)
	}
	req.slot, req.gen = slot, gen
	r.freeSlots = append(r.freeSlots, slot)
}

// resolve returns the live request q names, nil for a zero or stale
// handle. A handle another rank made is an MPI_ERR_REQUEST: requests are
// process-local.
func (r *Rank) resolve(q Req, fn mpicall.Func) *request {
	if q.rank != nil && q.rank != r {
		panic(mpiErrorf(ErrRequest, r.rank, fn.String(), "using a request owned by rank %d", q.rank.rank))
	}
	return q.live()
}

// freeCompleted frees the request behind q once the Wait or Test that
// completed it is over, unless it is persistent: those stay live until
// RequestFree. The calls invoke it after endCall, so AfterCall still reads
// the request. It goes by the handle, so a request a Waitall names twice
// is freed once.
func (r *Rank) freeCompleted(q Req) {
	if req := q.live(); req != nil && req.done && req.persistent == nil {
		r.freeRequest(req)
	}
}

// describe records a request's point-to-point partner for deadlock
// diagnostics; peer is a comm rank, AnySource, or ProcNull.
func (req *request) describe(peer, tag int) {
	req.peer, req.tag = peer, tag
}

// beginCall notes a call start for the interceptor and accounting, and
// returns the rank's reused Call holding a copy of *c. It takes c by
// pointer so the caller's literal, which stays on its stack, is copied
// once. It is also the fault plan's call-granularity trigger point: a
// scheduled rank crash fires here, before the call does anything.
func (r *Rank) beginCall(c *Call) *Call {
	r.call = *c
	call := &r.call
	call.Start = r.clock.Now()
	r.calls++
	r.curCall = call
	if plan := r.world.cfg.Faults; plan != nil {
		if cr, ok := plan.CrashAt(r.rank, r.calls, r.clock.Now()); ok {
			panic(&crashPanic{op: call.Func, call: r.calls, silent: cr.Silent})
		}
	}
	r.checkDeadline()
	if ic := r.world.cfg.Interceptor; ic != nil {
		ic.BeforeCall(r, call)
	}
	return call
}

// endCall notes a call end.
func (r *Rank) endCall(call *Call) {
	call.End = r.clock.Now()
	r.curCall = nil
	r.commTime += call.End.Sub(call.Start)
	if ic := r.world.cfg.Interceptor; ic != nil {
		ic.AfterCall(r, call)
	}
}

// checkDeadline aborts the run once the rank's virtual clock passes the
// configured budget, reporting whatever the other ranks are parked on.
// It doubles as the cancellation poll for the running rank: it is invoked
// at every MPI call and computation region, so a context cancellation
// unwinds this rank at its next event instead of letting it run to
// completion.
func (r *Rank) checkDeadline() {
	w := r.world
	if w.pollCancel(); w.failed != nil {
		panic(errAborted)
	}
	d := w.cfg.Deadline
	if d <= 0 || vtime.Duration(r.clock.Now()) <= d {
		return
	}
	w.fail(&DeadlockError{
		Reason: fmt.Sprintf("virtual-time deadline %v exceeded on rank %d in %s",
			d, r.rank, callName(r.curCall)),
		Blocked: w.blockedOps(),
	})
	panic(errAborted)
}

// callName names a possibly-nil call, for deadline reports raised from
// computation regions.
func callName(c *Call) string {
	if c == nil {
		return "a computation region"
	}
	return c.Func.String()
}

// pendingOp builds the deadlock-detector record for the rank's current
// blocking call. Peer and Tag default to "none"; blocking sites override
// them for point-to-point operations.
func (r *Rank) pendingOp(detail string) PendingOp {
	op := PendingOp{Rank: r.rank, Func: callName(r.curCall), Comm: -1, Peer: NoPeer, Detail: detail}
	if c := r.curCall; c != nil && c.Comm != nil {
		op.Comm = c.Comm.id
	}
	return op
}

// suspend hands control back to World.Run until the scheduler resumes the
// rank. A false yield means Run is stopping the coroutine, so the rank
// unwinds like any aborted rank.
func (r *Rank) suspend() {
	if !r.yield(struct{}{}) {
		panic(errAborted)
	}
}

// pollYield lets the other ranks run after a Test, Testall or Iprobe that
// found nothing: the rank goes to the back of the run queue, so a polling
// loop waits for its peers to act instead of spinning, and the number of
// polls is a function of the program rather than of timing.
func (r *Rank) pollYield() {
	r.world.queue(r)
	r.suspend()
}
