package mpi

import (
	"context"
	"fmt"
	"sort"

	"siesta/internal/fault"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/vtime"
)

// Config describes one simulated execution environment.
type Config struct {
	Platform *platform.Platform // hardware model (defaults to platform.A)
	Impl     *netmodel.Impl     // MPI implementation model (defaults to OpenMPI)
	Size     int                // number of ranks
	// NoiseSigma is the relative stddev of performance-counter readings;
	// 0 means exact counters.
	NoiseSigma float64
	// RunVariation is the relative stddev of run-to-run environmental
	// variation: each rank's computation speed and the job's network
	// weather draw deterministic multiplicative factors from Seed. Two
	// runs with different seeds behave like two real cluster jobs; 0
	// makes runs with equal configuration bit-identical.
	RunVariation float64
	// Seed decorrelates noise and jitter streams across runs.
	Seed uint64
	// Interceptor, when set, observes every MPI call and computation
	// region (the PMPI hook).
	Interceptor Interceptor
	// Faults, when non-nil and non-empty, injects the plan's failures
	// (rank crashes, message drops and delays, stragglers, chaos) into
	// the run. All injection is deterministic in the plan and its seed;
	// a nil or empty plan leaves the run bit-identical to an unfaulted
	// one.
	Faults *fault.Plan
	// Deadline, when positive, bounds each rank's virtual time: the run
	// aborts with a DeadlockError once any rank's clock passes it. It
	// backstops livelocks (e.g. MPI_Test polling loops) that the
	// structural deadlock detector cannot see.
	Deadline vtime.Duration
	// Ctx, when non-nil, bounds the run in wall-clock terms: canceling it
	// (or passing its deadline) tears the run down promptly — the running
	// rank stops at its next MPI call or computation region, and parked
	// ranks unwind when next resumed — and Run returns a *CancelError
	// matching ErrCanceled. Run polls Ctx at those points and before
	// every resume; it starts no goroutine to watch it. A nil Ctx never
	// cancels.
	Ctx context.Context
}

// World is one simulated MPI job: a set of ranks, their message router and
// collective sequencer, and the accumulated per-rank results.
//
// Run drives the ranks as coroutines from its caller's goroutine, one rank
// at a time: a rank runs until it blocks (or polls without success) and
// then yields to the next rank in a FIFO run queue. Nothing else touches
// the world while it runs — a context cancellation is polled, not posted
// — so its state needs no lock.
type World struct {
	cfg        Config
	commJitter float64 // per-run network weather factor
	ranks      []*Rank

	// done is cfg.Ctx.Done(), cached for the cancellation polls; nil when
	// the run cannot be canceled.
	done <-chan struct{}

	// runq is the FIFO ring of runnable ranks. A rank is queued at most
	// once (Rank.queued), so the ring holds one slot per rank and never
	// grows.
	runq     []*Rank
	runqHead int
	runqLen  int

	// Message routing state.
	mailbox [][]*message    // unexpected messages per destination world rank
	posted  [][]*postedRecv // posted receives per destination world rank
	colls   map[collKey]*collSlot

	// Free lists of matched messages and posted receives; see freeList.
	msgs  freeList[message]
	recvs freeList[postedRecv]

	world      *Comm
	nextCommID int
	nextFileID int

	// msgCount numbers every point-to-point message per (src, dst)
	// channel in post order: the observability layer joins send and
	// receive events into message edges by (src, dst, seq), and the fault
	// plan decides drops and delays by the same number.
	msgCount *chanCounter

	// running counts ranks in rsRunning, so the deadlock detector can
	// return at once while any rank may still act. Written only by
	// setState.
	running int

	failed error
}

// rankState tracks where a rank is for the deadlock detector.
type rankState int

const (
	rsRunning  rankState = iota
	rsBlocked            // inside a blocking MPI call, wait condition unmet
	rsFinished           // returned from the app function
	rsCrashed            // removed by a silent fault-injected crash
)

// message is one in-flight point-to-point message.
type message struct {
	commID    int
	srcComm   int // source rank in the communicator
	dstWorld  int
	srcWorld  int
	tag       int
	bytes     int
	seq       int // per-(src,dst) channel number, assigned at post time
	payload   []byte
	eager     bool
	readyTime vtime.Time     // when the sender's data became available
	wire      vtime.Duration // transfer duration once underway
	sendReq   *request       // resolves when transfer completes (rendezvous)
	sender    *Rank          // for waking a blocked rendezvous sender
}

// postedRecv is a receive waiting for a matching message.
type postedRecv struct {
	commID   int
	src      int // comm rank or AnySource
	tag      int // or AnyTag
	postTime vtime.Time
	req      *request
	owner    *Rank
	buf      []byte
}

// message and postedRecv structs churn once per point-to-point call. Both
// have a clean lifetime: a matched (message, postedRecv) pair dies inside
// postMessage/postRecv the moment completeMatch returns, so the match
// functions recycle them there, after the last field read, onto the
// world's free lists. Callers follow one discipline: once a struct is
// posted it is never touched again (postMessage returns the assigned seq
// so senders do not read m.seq afterwards). Structs that never reach a
// match — mailbox residue at teardown, probe templates — simply fall to
// the GC; recycling is an optimization, never an obligation.
//
// The free lists belong to the world and are touched only from rank
// coroutines, which Run drives one at a time, so a get or put is a slice
// pop or push.
type freeList[T any] []*T

// get pops a recycled object, or allocates a zero one.
func (fl *freeList[T]) get() *T {
	n := len(*fl)
	if n == 0 {
		return new(T)
	}
	x := (*fl)[n-1]
	*fl = (*fl)[:n-1]
	return x
}

// put zeroes x and pushes it for the next get.
func (fl *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	if releaseHook != nil {
		releaseHook(x)
	}
	*fl = append(*fl, x)
}

// releaseHook, when set, sees every message, posted receive and request
// as it is recycled. Only tests set it (to poison released objects), and
// never while a world runs.
var releaseHook func(any)

// flatChanCutoff is the world size up to which per-channel message
// counters use a dense size×size array instead of a map: one indexed add
// per message instead of a map probe. 256 ranks cost 512KiB per counter,
// well under the per-rank coroutine stacks at that scale.
const flatChanCutoff = 256

// chanCounter numbers messages per directed (src, dst) channel.
type chanCounter struct {
	size int
	flat []int          // dense counters when size <= flatChanCutoff
	m    map[[2]int]int // fallback for very large worlds
}

func newChanCounter(size int) *chanCounter {
	cc := &chanCounter{size: size}
	if size <= flatChanCutoff {
		cc.flat = make([]int, size*size)
	} else {
		cc.m = make(map[[2]int]int)
	}
	return cc
}

// next returns the channel's current count and increments it.
func (cc *chanCounter) next(src, dst int) int {
	if cc.flat != nil {
		i := src*cc.size + dst
		n := cc.flat[i]
		cc.flat[i] = n + 1
		return n
	}
	n := cc.m[[2]int{src, dst}]
	cc.m[[2]int{src, dst}] = n + 1
	return n
}

type collKey struct {
	commID int
	seq    int
}

// collSlot synchronizes one collective operation instance.
type collSlot struct {
	expected int
	arrived  int
	maxIn    vtime.Time
	bytes    int             // the members' maximum, or their sum for fileIO
	price    netmodel.CollOp // the cost model's op
	// The first arrival's call, root and reduction op, which every member
	// must repeat.
	fn        string
	root      int
	op        ReduceOp
	outTime   vtime.Time
	completed bool // set once the last member arrives
	// split bookkeeping
	splitArgs map[int][2]int // world rank -> (color, key)
	newComms  map[int]*Comm  // world rank -> resulting comm
	// file-open bookkeeping: the handle shared by the group
	sharedFile *File
	// non-blocking collective requests resolved at completion
	waiters []*request
}

// NewWorld creates a simulated MPI job. It panics on invalid configuration
// because a bad config is a programming error in the harness, not a runtime
// condition.
func NewWorld(cfg Config) *World {
	if cfg.Platform == nil {
		cfg.Platform = platform.A
	}
	if cfg.Impl == nil {
		cfg.Impl = netmodel.OpenMPI
	}
	if cfg.Size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", cfg.Size)) //ranklock:ok — programmer error, precedes any rank goroutine
	}
	if max := cfg.Platform.MaxRanks(); max > 0 && cfg.Size > max {
		panic(fmt.Sprintf("mpi: platform %s hosts at most %d ranks, requested %d", //ranklock:ok — programmer error, precedes any rank goroutine
			cfg.Platform.Name, max, cfg.Size))
	}
	if cfg.Faults.Empty() {
		cfg.Faults = nil // empty plans skip all fault bookkeeping
	}
	w := &World{
		cfg:        cfg,
		commJitter: perfmodel.JitterFactor(cfg.RunVariation, cfg.Seed^0xc0111d),
		mailbox:    make([][]*message, cfg.Size),
		posted:     make([][]*postedRecv, cfg.Size),
		colls:      make(map[collKey]*collSlot),
		msgCount:   newChanCounter(cfg.Size),
		runq:       make([]*Rank, cfg.Size),
		nextCommID: 1,
		running:    cfg.Size, // every rank starts in rsRunning
	}
	ranks := make([]int, cfg.Size)
	for i := range ranks {
		ranks[i] = i
	}
	w.world = w.newComm(0, ranks)
	w.ranks = make([]*Rank, cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		w.ranks[i] = &Rank{
			world:    w,
			rank:     i,
			noise:    perfmodel.NewNoise(cfg.NoiseSigma, cfg.Seed^uint64(i)*0x9e3779b97f4a7c15+uint64(i)),
			jitter:   perfmodel.JitterFactor(cfg.RunVariation, cfg.Seed+0x7e57*uint64(i+1)),
			straggle: cfg.Faults.SlowdownFor(i),
			seqs:     map[int]int{},
		}
	}
	return w
}

func (w *World) newComm(id int, worldRanks []int) *Comm {
	c := &Comm{id: id, ranks: worldRanks, index: make(map[int]int, len(worldRanks))}
	for i, wr := range worldRanks {
		c.index[wr] = i
	}
	for _, wr := range worldRanks {
		if !w.cfg.Platform.SameNode(worldRanks[0], wr) {
			c.inter = true
			break
		}
	}
	return c
}

// RankResult is one rank's outcome of a run.
type RankResult struct {
	Rank        int
	FinishTime  vtime.Time         // rank-local virtual time at Finalize
	CommTime    vtime.Duration     // virtual time spent inside MPI calls
	Compute     perfmodel.Counters // accumulated computation counters
	ComputeTime vtime.Duration     // virtual time spent in computation regions
	Calls       int                // number of MPI calls issued
}

// RunResult aggregates a completed run.
type RunResult struct {
	Ranks    []RankResult
	ExecTime vtime.Duration // max finish time across ranks
}

// TotalCompute sums computation counters across all ranks.
func (r *RunResult) TotalCompute() perfmodel.Counters {
	var c perfmodel.Counters
	for i := range r.Ranks {
		c.Add(r.Ranks[i].Compute)
	}
	return c
}

// Run executes the SPMD function on every rank and returns the per-rank
// results. A rank failure — a panic, an MPIError raised by the runtime, a
// fault-injected crash, or a detected deadlock — aborts the run and is
// reported as a structured error: panics carrying an error value (the
// idiom for propagating typed errors out of the SPMD function) are wrapped
// with %w so errors.As sees through them.
//
// The ranks run as coroutines driven from the calling goroutine, one at a
// time, so the SPMD function must not block on another rank outside MPI (a
// channel receive that another rank fills would stop the whole world).
func (w *World) Run(app func(r *Rank)) (*RunResult, error) {
	if ctx := w.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, &CancelError{Cause: context.Cause(ctx)}
		}
		w.done = ctx.Done()
	}
	// Stopping a finished coroutine is a no-op; stopping a suspended one
	// unwinds it (its yield returns false), so no rank outlives Run — not
	// after a stall, and not when a rank's Goexit unwinds the caller.
	defer func() {
		for _, r := range w.ranks {
			if r.stop != nil {
				r.stop()
			}
		}
	}()
	for _, r := range w.ranks {
		r.next, r.stop = newCoro(w.rankBody(r, app))
		w.queue(r)
	}
	for w.runqLen > 0 {
		w.pollCancel()
		w.dequeue().next()
	}
	if w.failed == nil {
		w.failed = w.stallError()
	}
	if w.failed == nil {
		// A silent crash whose survivors all finished still failed the
		// job; real MPI would have hung in MPI_Finalize.
		for _, r := range w.ranks {
			if r.state == rsCrashed {
				w.failed = mpiErrorf(ErrProcFailed, r.rank, "",
					"rank silently crashed by fault plan")
				break
			}
		}
	}
	if w.failed != nil {
		return nil, w.failed
	}
	res := &RunResult{Ranks: make([]RankResult, w.cfg.Size)}
	for i, r := range w.ranks {
		res.Ranks[i] = RankResult{
			Rank:        i,
			FinishTime:  r.clock.Now(),
			CommTime:    r.commTime,
			Compute:     r.computeTotal,
			ComputeTime: r.computeTime,
			Calls:       r.calls,
		}
		if vtime.Duration(res.Ranks[i].FinishTime) > res.ExecTime {
			res.ExecTime = vtime.Duration(res.Ranks[i].FinishTime)
		}
	}
	return res, nil
}

// pollCancel fails the run with a *CancelError once its context is done.
// It never blocks. Run calls it before every resume and Rank.checkDeadline
// at every call and computation region; fail then queues every parked
// rank, so the running rank unwinds at its next event and the parked ones
// when next resumed.
func (w *World) pollCancel() {
	if w.done == nil {
		return
	}
	select {
	case <-w.done:
		w.fail(&CancelError{Cause: context.Cause(w.cfg.Ctx)})
	default:
	}
}

// rankBody is rank r's coroutine: it runs the SPMD function and, on any
// exit, settles the rank's state and the run's verdict.
func (w *World) rankBody(r *Rank, app func(*Rank)) func(func(struct{}) bool) {
	return func(yield func(struct{}) bool) {
		r.yield = yield
		defer w.rankExit(r)
		app(r)
	}
}

// rankExit is the deferred end of a rank's coroutine: it records how the
// rank ended and turns a failure into the run's error.
func (w *World) rankExit(r *Rank) {
	p := recover()
	state := rsFinished
	if _, crashed := p.(*crashPanic); crashed {
		state = rsCrashed
	}
	w.setState(r, state)
	switch pv := p.(type) {
	case nil:
	case *crashPanic:
		if !pv.silent {
			w.fail(mpiErrorf(ErrProcFailed, r.rank, pv.op,
				"rank killed by fault plan at call %d", pv.call))
		}
	case error:
		if pv != errAborted {
			w.fail(fmt.Errorf("mpi: rank %d failed: %w", r.rank, pv))
		}
	default:
		w.fail(fmt.Errorf("mpi: rank %d panicked: %v", r.rank, p))
	}
	w.checkDeadlock()
}

// stallError reports the ranks left unfinished once the run queue has
// drained, or nil when every rank finished or crashed. A stall means a
// wake-up went missing: no wake site queued a rank whose wait became
// ready, so the deadlock detector (which takes a ready rank for a merely
// unscheduled one) could not fire either. Run stops the stalled ranks'
// coroutines on return. Called after the run queue drained.
func (w *World) stallError() error {
	var stalled []int
	for _, r := range w.ranks {
		if r.state != rsFinished && r.state != rsCrashed {
			stalled = append(stalled, r.rank)
		}
	}
	if stalled == nil {
		return nil
	}
	return &StallError{Ranks: stalled}
}

// queue appends r to the run queue.
func (w *World) queue(r *Rank) {
	w.runq[(w.runqHead+w.runqLen)%len(w.runq)] = r
	w.runqLen++
	r.queued = true
}

// dequeue pops the next runnable rank. The queue must not be empty.
func (w *World) dequeue() *Rank {
	r := w.runq[w.runqHead]
	w.runq[w.runqHead] = nil
	w.runqHead = (w.runqHead + 1) % len(w.runq)
	w.runqLen--
	r.queued = false
	return r
}

// wake queues r if it is parked in waitCond and its wait can now
// end: its predicate holds or the run failed. A wait's predicate, once
// true, stays true until the rank itself acts, so a rank is resumed only
// when it can proceed.
func (w *World) wake(r *Rank) {
	if r.parked && !r.queued && (w.aborted() || w.ready(&r.wait)) {
		w.queue(r)
	}
}

// aborted reports whether the run has failed; blocked ranks poll this after
// wakeups so a panic on one rank unblocks the others.
func (w *World) aborted() bool { return w.failed != nil }

// fail records the run's first failure and wakes every blocked rank
// so the job tears down promptly. Later failures are ignored (first error
// wins, as with MPI_Abort racing).
func (w *World) fail(err error) {
	if w.failed != nil {
		return
	}
	w.failed = err
	for _, r := range w.ranks {
		w.wake(r)
	}
}

// setState moves r to state s and keeps w.running in step. It is
// the only writer of Rank.state.
func (w *World) setState(r *Rank, s rankState) {
	if r.state == rsRunning {
		w.running--
	}
	if s == rsRunning {
		w.running++
	}
	r.state = s
}

// waitKind names what a blocked rank waits for.
type waitKind uint8

const (
	waitPeer    waitKind = iota + 1 // a blocking point-to-point call's own request completes
	waitRequest                     // a Wait on a request completes
	waitAny                         // any of reqs completes (Waitany)
	waitProbe                       // a mailbox message matches probe
	waitColl                        // the collective slot completes
)

// waitDesc is a blocked rank's wait: its enabling predicate (ready)
// and, once a deadlock is proved, its PendingOp (pending) both derive
// from it, so blocking builds neither a closure nor a report.
type waitDesc struct {
	kind   waitKind
	detail string      // waitPeer: the PendingOp detail ("" for a receive)
	req    *request    // waitPeer, waitRequest
	reqs   []*request  // waitAny
	probe  *postedRecv // waitProbe
	slot   *collSlot   // waitColl
	comm   int         // waitColl: communicator id
	seq    int         // waitColl: collective sequence number
}

// ready evaluates the wait's enabling predicate.
func (w *World) ready(wd *waitDesc) bool {
	switch wd.kind {
	case waitPeer, waitRequest:
		return wd.req.done
	case waitAny:
		for _, req := range wd.reqs {
			if req != nil && req.done {
				return true
			}
		}
	case waitProbe:
		return w.findUnexpected(wd.probe) != nil
	case waitColl:
		return wd.slot.completed
	}
	return false
}

// pending describes the rank's wait for a deadlock or deadline
// report. It runs only when a report is actually produced, so its
// description (e.g. collective arrival counts) reflects the state at
// report time, not at block time.
func (r *Rank) pending() PendingOp {
	wd := &r.wait
	switch wd.kind {
	case waitPeer:
		op := r.pendingOp(wd.detail)
		op.Peer, op.Tag = wd.req.peer, wd.req.tag
		return op
	case waitRequest:
		req := wd.req
		op := r.pendingOp(fmt.Sprintf("request #%d from %s", req.id, req.op))
		op.Peer, op.Tag = req.peer, req.tag
		if req.commID >= 0 {
			op.Comm = req.commID
		}
		return op
	case waitAny:
		return r.pendingOp(fmt.Sprintf("any of %d requests", len(wd.reqs)))
	case waitProbe:
		op := r.pendingOp("probing")
		op.Peer, op.Tag = wd.probe.src, wd.probe.tag
		return op
	default: // waitColl
		op := r.pendingOp(fmt.Sprintf("seq %d, %d/%d arrived", wd.seq, wd.slot.arrived, wd.slot.expected))
		op.Comm = wd.comm
		return op
	}
}

// waitCond blocks the rank until its wait wd is ready or the run aborts,
// maintaining the wait-for bookkeeping the deadlock detector reads: a
// blocked rank whose wait is already ready is merely not yet scheduled,
// not stuck. While blocked the rank is parked: it yields to the scheduler,
// and a wake site queues it once it can proceed.
func (w *World) waitCond(r *Rank, wd waitDesc) {
	if w.ready(&wd) || w.aborted() {
		return
	}
	r.wait = wd
	w.setState(r, rsBlocked)
	w.checkDeadlock()
	for !w.ready(&r.wait) && !w.aborted() {
		r.parked = true
		r.suspend()
		r.parked = false
	}
	w.setState(r, rsRunning)
	r.wait = waitDesc{}
}

// checkDeadlock declares a deadlock when no rank can make progress:
// every rank is blocked (with its enabling predicate false), finished, or
// crashed, and at least one is blocked. The runtime has no external event
// sources — message delivery and collective completion happen
// synchronously on some rank's call path — so this condition is stable:
// nothing will ever wake a blocked rank again. It runs on every rank
// state transition, making detection immediate rather than timeout-based.
//
// The check costs nothing while the running count is nonzero. Otherwise a
// first pass evaluates only the enabling predicates and returns at the
// first blocked rank that is ready; the report, which formats every
// blocked rank's PendingOp from its wait descriptor, is built in a second
// pass only once that pass has proved the deadlock.
func (w *World) checkDeadlock() {
	if w.failed != nil || w.running > 0 {
		return
	}
	stuck := false
	for _, r := range w.ranks {
		if r.state != rsBlocked {
			continue
		}
		if w.ready(&r.wait) {
			return // enabled transition: the rank just hasn't woken yet
		}
		stuck = true
	}
	if !stuck {
		return
	}
	var blocked []PendingOp
	var crashed []int
	for _, r := range w.ranks {
		switch r.state {
		case rsBlocked:
			blocked = append(blocked, r.pending())
		case rsCrashed:
			crashed = append(crashed, r.rank)
		}
	}
	reason := "no rank can make progress"
	if len(crashed) > 0 {
		reason = "no surviving rank can make progress"
	}
	w.fail(&DeadlockError{Reason: reason, Blocked: blocked, Crashed: crashed})
}

// blockedOps snapshots the pending operations of currently blocked
// ranks, for deadline reports. Ranks whose enabling predicate already
// holds are merely unscheduled, not stuck, and are omitted.
func (w *World) blockedOps() []PendingOp {
	var ops []PendingOp
	for _, r := range w.ranks {
		if r.state == rsBlocked && !w.ready(&r.wait) {
			ops = append(ops, r.pending())
		}
	}
	return ops
}

// routeFaults applies the fault plan to an outgoing message: it may be
// dropped (never delivered) or have its wire time stretched. Returns
// false when the message is dropped. Deciding by the message's per-channel
// sequence number keeps decisions deterministic in send order.
func (w *World) routeFaults(m *message) bool {
	plan := w.cfg.Faults
	if plan == nil {
		return true
	}
	if plan.DropMessage(m.srcWorld, m.dstWorld, m.tag, m.seq) {
		return false
	}
	m.wire = plan.DelayFor(m.srcWorld, m.dstWorld, m.tag, m.seq, m.wire)
	return true
}

// collectiveSlot returns (creating if needed) the slot for a collective
// instance; a new slot takes its pricing op and the call its members must
// agree on from the first arrival.
func (w *World) collectiveSlot(c *Comm, seq int, price netmodel.CollOp, call *Call) *collSlot {
	key := collKey{commID: c.id, seq: seq}
	slot, ok := w.colls[key]
	if !ok {
		slot = &collSlot{
			expected: len(c.ranks),
			price:    price,
			fn:       call.Func,
			root:     call.Root,
			op:       call.Op,
		}
		w.colls[key] = slot
	}
	return slot
}

// finishCollective completes a slot once all ranks have arrived, retires
// it and wakes its communicator's members: those blocked in the
// collective, and those waiting on one of its non-blocking requests.
func (w *World) finishCollective(c *Comm, seq int, slot *collSlot) {
	var cost vtime.Duration
	if slot.price == fileIO {
		cost = vtime.Duration(fsLatencySec + float64(slot.bytes)/fsAggregateBwBps)
	} else {
		cost = w.cfg.Impl.CollectiveCost(w.cfg.Platform, slot.price, slot.bytes, len(c.ranks), c.inter)
	}
	slot.outTime = slot.maxIn.Add(vtime.Duration(float64(cost) * w.commJitter))
	if slot.splitArgs != nil {
		w.resolveSplit(c, slot)
	}
	for _, req := range slot.waiters {
		req.done = true
		req.time = float64(slot.outTime)
	}
	delete(w.colls, collKey{commID: c.id, seq: seq})
	slot.completed = true
	for _, wr := range c.ranks {
		w.wake(w.ranks[wr])
	}
}

// resolveSplit groups split participants by color, orders them by key then
// world rank, and assigns new communicator ids deterministically in
// ascending color order.
func (w *World) resolveSplit(c *Comm, slot *collSlot) {
	byColor := map[int][]int{} // color -> world ranks
	var colors []int
	for wr, ck := range slot.splitArgs {
		color := ck[0]
		if color < 0 { // MPI_UNDEFINED: rank gets no communicator
			continue
		}
		if _, ok := byColor[color]; !ok {
			colors = append(colors, color)
		}
		byColor[color] = append(byColor[color], wr)
	}
	sort.Ints(colors)
	slot.newComms = map[int]*Comm{}
	for _, color := range colors {
		members := byColor[color]
		sort.Slice(members, func(i, j int) bool {
			ki, kj := slot.splitArgs[members[i]][1], slot.splitArgs[members[j]][1]
			if ki != kj {
				return ki < kj
			}
			return members[i] < members[j]
		})
		nc := w.newComm(w.nextCommID, members)
		w.nextCommID++
		for _, wr := range members {
			slot.newComms[wr] = nc
		}
	}
}
