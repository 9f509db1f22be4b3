package check

import (
	"fmt"
	"slices"
	"sort"

	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// The abstract machine mirrors the simulated runtime's matching rules
// (p2p.go, coll.go, io.go) over expanded per-rank event sequences, with one
// deliberate abstraction: sends are buffered and never block (except
// MPI_Ssend, which is synchronous by definition). Under that abstraction a
// reported deadlock is a definite deadlock of the eager-protocol run, and a
// clean verdict means every blocking operation can be discharged in some
// schedule — the greedy fixpoint below finds one if it exists, because every
// abstract transition is monotone (executing one rank never disables
// another's enabled transition). Every record names a call of the mpicall
// table, since decoding refuses a trace that names any other, so step
// gives every call its semantics and skips none.

const (
	anyPeer  = trace.Wildcard // wildcard source / tag sentinel, as traced
	procNull = -2             // resolved MPI_PROC_NULL partner
)

type evRef struct{ rank, idx int }

// vcomm is one communicator instance. Pool numbers are per-rank names;
// instances are the shared identity, so pool reuse after MPI_Comm_free
// cannot confuse two generations of communicators.
type vcomm struct {
	id      int
	members []int // comm rank -> world rank
	index   []int // world rank -> comm rank, -1 for non-members
	// slots holds the open rendezvous slots by collective sequence number,
	// starting at slotBase. A slot leaves once every member has arrived (no
	// member can arrive at its sequence number again), so the window spans
	// only the steps some member has reached and another has not.
	slots    []*vslot
	slotBase int
}

type vfile struct {
	comm *vcomm
	name string
}

// vmsg is one in-flight message. It holds the communicator's instance id
// rather than a pointer so the message free list stays pointer-free (no
// write barriers or GC scans on the hottest allocation). A buffered message
// is released the moment a receive matches it; an MPI_Ssend's waits for its
// sender to advance.
type vmsg struct {
	id          int // machine-global sequential identity, for Hooks
	src, dst    int // world ranks
	commID      int // communicator instance id
	tag, bytes  int
	ev          evRef
	term        int  // sending terminal id
	matched     bool // set only on synchronous messages, which outlive their match
	synchronous bool // MPI_Ssend: sender blocks until matched
}

// vrecv is one posted receive. Its owner — the blocking event that posted
// it, or the request it belongs to — releases it once matched: at the
// event's advance, or when the request is waited on or leaves its pool. A
// receive still posted when its request leaves the pool is an orphan,
// released at its match.
type vrecv struct {
	owner  int    // world rank
	comm   *vcomm // for deadlock reporting
	commID int    // communicator instance id, for matching
	src    int    // world rank, anyPeer, or procNull
	tag    int    // tag or anyPeer
	bytes  int    // expected bytes, -1 unknown (Sendrecv's receive half)
	ev     evRef
	term   int
	msgID  int  // the matched message's id, -1 while posted
	orphan bool // no owner will release it
}

const (
	rkSend = iota
	rkRecv
	rkColl
)

// vreq is one live request-pool entry. It is released when it leaves its
// pool; a persistent request stays pooled across its waits.
type vreq struct {
	kind       int
	persistent bool
	active     bool          // persistent: between MPI_Start and its wait
	polled     bool          // touched by MPI_Test/MPI_Testall (see note below)
	rec        *trace.Record // creating record, for MPI_Start and leak reports
	recv       *vrecv
	slot       *vslot
	ev         evRef
}

// A note on polled: MPI_Test with flag=false (pool kept) and flag=true
// (pool released) produce the *same* terminal, so the trace cannot tell the
// checker which happened. A polled request therefore stays mapped but is
// exempt from leak reporting, and re-acquiring its pool number is treated
// as the implicit release the runtime already performed.

// vslot is one collective instance: the (communicator instance, per-rank
// sequence number) rendezvous the runtime keys its slots by. An open slot
// lives on its communicator; each arrival's blocking event or request holds
// it, and it is released once full with no holder left.
type vslot struct {
	comm     *vcomm
	seq      int
	fn       mpicall.Func
	root     int
	op       string
	firstEv  evRef
	arrived  []*trace.Record // comm rank -> its record, nil until arrival
	arrivedN int
	full     bool
	flagged  bool // mismatch already reported
	refs     int  // arrivals whose event or request still holds the slot

	splitArgs map[int][2]int // world rank -> (color, key)
	groups    map[int]*vcomm // world rank -> split/dup result (nil = MPI_UNDEFINED)
	file      *vfile         // MPI_File_open: the shared handle identity
}

// lrank is one rank's abstract state.
type lrank struct {
	rank    int
	cur     merge.Cursor // walks the rank's expansion; stands on event pc
	term    int          // global terminal id of event pc
	atEnd   bool         // the expansion has no event pc
	pc      int
	done    bool
	comms   poolTable[*vcomm]
	files   poolTable[*vfile]
	reqs    poolTable[*vreq]
	collSeq poolTable[int] // comm instance id -> issued collective steps

	// Current blocking operation, once initiated (receive posted, message
	// posted, collective arrival registered). Cleared on advance.
	inited  bool
	curRecv *vrecv
	curMsg  *vmsg
	curSlot *vslot
}

type machine struct {
	p     *merge.Program
	opts  Options
	rep   *Report
	cur   *merge.Cursor // resolves diagnostic anchors; each rank walks its own clone
	hooks Hooks         // nil when no listener is attached

	ranks []lrank
	// mailbox and posted are indexed by destination world rank; mailbox has
	// one extra trailing slot for messages whose destination is no world
	// rank (a wildcard destination in a corrupt program), which can never
	// match but must still surface in the unmatched-traffic report.
	mailbox  [][]*vmsg
	posted   [][]*vrecv
	nextInst int
	nextMsg  int

	msgs  freeList[vmsg]
	recvs freeList[vrecv]
	reqs  freeList[vreq]
	slots freeList[vslot]

	byteSeen map[[2]int]bool // (send terminal, recv terminal) pairs reported
	zeroSeen map[int]bool    // zero-byte send terminals reported
	cntSeen  map[int]bool    // v-collective count-length terminals reported
}

func newMachine(p *merge.Program, opts Options) (*machine, error) {
	cur, err := merge.NewCursor(p)
	if err != nil {
		return nil, err
	}
	m := &machine{
		p:        p,
		cur:      cur,
		opts:     opts,
		hooks:    opts.Hooks,
		rep:      &Report{NumRanks: p.NumRanks},
		mailbox:  make([][]*vmsg, p.NumRanks+1),
		posted:   make([][]*vrecv, p.NumRanks),
		byteSeen: map[[2]int]bool{},
		zeroSeen: map[int]bool{},
		cntSeen:  map[int]bool{},
	}
	if !terminalsInTable(p) {
		// Only hand-built programs get here: name the first event, in rank
		// order, that reaches a terminal outside the table.
		for r := 0; r < p.NumRanks; r++ {
			if err := cur.Reset(r); err != nil {
				return nil, err
			}
			for cur.Next() {
				if id := cur.Term(); id < 0 || id >= len(p.Terminals) {
					return nil, fmt.Errorf("check: rank %d references terminal %d outside table of %d", r, id, len(p.Terminals))
				}
			}
		}
	}
	world := m.newComm(allRanks(p.NumRanks))
	m.ranks = make([]lrank, p.NumRanks)
	for r := range m.ranks {
		lr := &m.ranks[r]
		lr.rank, lr.cur = r, *cur.Clone()
		if err := lr.cur.Reset(r); err != nil {
			return nil, err
		}
		m.rep.Events += int(lr.cur.Len())
		lr.atEnd, lr.term = !lr.cur.Next(), lr.cur.Term()
		lr.comms.set(0, world) // pool 0 is MPI_COMM_WORLD
	}
	return m, nil
}

// terminalsInTable reports whether every terminal symbol of the grammar
// names an entry of the terminal table.
func terminalsInTable(p *merge.Program) bool {
	ok := func(s merge.Sym) bool { return s.IsRule || s.Ref >= 0 && s.Ref < len(p.Terminals) }
	for _, body := range p.Rules {
		for _, s := range body {
			if !ok(s) {
				return false
			}
		}
	}
	for _, mn := range p.Mains {
		for _, ms := range mn.Body {
			if !ok(ms.Sym) {
				return false
			}
		}
	}
	return true
}

func allRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (m *machine) newComm(members []int) *vcomm {
	c := &vcomm{id: m.nextInst, members: members, index: make([]int, m.p.NumRanks)}
	m.nextInst++
	for i := range c.index {
		c.index[i] = -1
	}
	for i, wr := range members {
		if wr >= 0 && wr < len(c.index) {
			c.index[wr] = i
		}
	}
	return c
}

// diag records a finding, anchored at ev (terminal id and grammar path are
// derived from it; pass a negative rank for findings with no anchor).
func (m *machine) diag(sev Severity, rule string, ranks []int, ev evRef, format string, args ...any) {
	if len(m.rep.Diags) >= m.opts.MaxDiagnostics {
		m.rep.Truncated++
		return
	}
	d := Diagnostic{
		Rule:     rule,
		Severity: sev,
		Ranks:    append([]int(nil), ranks...),
		Record:   -1,
		Event:    -1,
		Message:  fmt.Sprintf(format, args...),
	}
	sort.Ints(d.Ranks)
	if ev.rank >= 0 && ev.rank < len(m.ranks) && ev.idx >= 0 &&
		m.cur.Reset(ev.rank) == nil && m.cur.SeekEvent(int64(ev.idx)) {
		d.Record, d.Event, d.Path = m.cur.Term(), ev.idx, m.cur.Path()
	}
	m.rep.Diags = append(m.rep.Diags, d)
}

var noEv = evRef{rank: -1, idx: -1}

// run drives the greedy fixpoint: every rank executes until it blocks; the
// pass repeats until no rank can move, then end-state rules fire.
func (m *machine) run() {
	for {
		progress := false
		for i := range m.ranks {
			r := &m.ranks[i]
			for m.step(r) {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	m.reportDeadlock()
	m.reportChannels()
	m.reportCollLengths()
}

// advance completes the current event, releases what its blocking state
// held and moves the rank's cursor on. It is the single completion point for
// every event, so Hooks.Exec fires here; a blocking receive that completed
// this event reports its match first. A blocking event advances only once
// discharged, so its receive or synchronous message is matched by now.
func (m *machine) advance(r *lrank) bool {
	if m.hooks != nil {
		if r.curRecv != nil {
			m.hooks.RecvComplete(r.rank, r.pc, r.curRecv.msgID)
		}
		m.hooks.Exec(r.rank, r.pc, r.term, m.p.Terminals[r.term])
	}
	if r.curRecv != nil {
		m.recvs.put(r.curRecv)
	}
	if r.curMsg != nil {
		m.msgs.put(r.curMsg)
	}
	if r.curSlot != nil {
		m.unrefSlot(r.curSlot)
	}
	r.pc++
	r.atEnd, r.term = !r.cur.Next(), r.cur.Term()
	r.inited = false
	r.curRecv, r.curMsg, r.curSlot = nil, nil, nil
	return true
}

// step executes at most one event on r; false means r is blocked or done.
func (m *machine) step(r *lrank) bool {
	if r.done {
		return false
	}
	if r.atEnd {
		r.done = true
		m.finishRank(r)
		return true
	}
	rec := m.p.Terminals[r.term]
	ev := evRef{r.rank, r.pc}

	switch rec.Func {
	case mpicall.Compute, mpicall.Iprobe:
		return m.advance(r)

	case mpicall.Send, mpicall.Isend:
		c := m.commOf(r, rec, ev)
		if c != nil {
			m.emitSend(r, c, rec, ev, false)
		}
		if rec.Func == mpicall.Isend {
			m.acquireReq(r, rec.ReqPool, m.newReq(vreq{kind: rkSend, rec: rec, ev: ev}), ev)
		}
		return m.advance(r)

	case mpicall.Ssend:
		if !r.inited {
			c := m.commOf(r, rec, ev)
			if c == nil {
				return m.advance(r)
			}
			msg := m.emitSend(r, c, rec, ev, true)
			if msg == nil {
				return m.advance(r)
			}
			r.curMsg, r.inited = msg, true
		}
		if r.curMsg.matched {
			return m.advance(r)
		}
		return false

	case mpicall.Recv:
		if !r.inited {
			c := m.commOf(r, rec, ev)
			if c == nil {
				return m.advance(r)
			}
			pr := m.makeRecv(r, c, rec.SrcRel, rec.Tag, rec.Bytes, ev)
			if pr == nil { // MPI_PROC_NULL source
				return m.advance(r)
			}
			m.postRecv(pr)
			r.curRecv, r.inited = pr, true
		}
		if r.curRecv.msgID >= 0 {
			return m.advance(r)
		}
		return false

	case mpicall.Irecv:
		// Irecv traces record Bytes=0 (the size is only known at match
		// time), so the receive side's expected size is unknown here.
		c := m.commOf(r, rec, ev)
		req := m.newReq(vreq{kind: rkRecv, rec: rec, ev: ev})
		if c != nil {
			if pr := m.makeRecv(r, c, rec.SrcRel, rec.Tag, -1, ev); pr != nil {
				m.postRecv(pr)
				req.recv = pr
			}
		}
		m.acquireReq(r, rec.ReqPool, req, ev)
		return m.advance(r)

	case mpicall.Probe:
		c := m.commOf(r, rec, ev)
		if c == nil {
			return m.advance(r)
		}
		pr := m.makeRecv(r, c, rec.SrcRel, rec.Tag, -1, ev)
		if pr == nil {
			return m.advance(r)
		}
		found := false
		for _, msg := range m.mailbox[r.rank] { // non-consuming
			if found = matches(pr, msg); found {
				break
			}
		}
		m.recvs.put(pr) // a probe posts nothing
		if found {
			return m.advance(r)
		}
		return false

	case mpicall.Sendrecv:
		if !r.inited {
			c := m.commOf(r, rec, ev)
			if c == nil {
				return m.advance(r)
			}
			m.emitSend(r, c, rec, ev, false)
			pr := m.makeRecv(r, c, rec.SrcRel, rec.RecvTag, -1, ev)
			if pr == nil {
				return m.advance(r)
			}
			m.postRecv(pr)
			r.curRecv, r.inited = pr, true
		}
		if r.curRecv.msgID >= 0 {
			return m.advance(r)
		}
		return false

	case mpicall.Wait, mpicall.Waitany:
		q := rec.ReqPool
		if q < 0 {
			return m.advance(r)
		}
		req := r.reqs.get(q)
		if req == nil {
			m.diag(Error, RuleHandleRequest, []int{r.rank}, ev,
				"%s on request pool %d with no live request", rec.Func, q)
			return m.advance(r)
		}
		if !reqDone(req) {
			return false
		}
		m.releaseReq(r, q, req)
		return m.advance(r)

	case mpicall.Waitall:
		for _, q := range rec.ReqPools {
			if q < 0 {
				continue
			}
			if req := r.reqs.get(q); req != nil && !reqDone(req) {
				return false
			}
		}
		for _, q := range rec.ReqPools {
			if q < 0 {
				continue
			}
			if req := r.reqs.get(q); req != nil {
				m.releaseReq(r, q, req)
			}
		}
		return m.advance(r)

	case mpicall.Test:
		if req := r.reqs.get(rec.ReqPool); req != nil {
			req.polled = true
		}
		return m.advance(r)

	case mpicall.Testall:
		for _, q := range rec.ReqPools {
			if req := r.reqs.get(q); req != nil {
				req.polled = true
			}
		}
		return m.advance(r)

	case mpicall.RequestFree:
		if req := r.reqs.get(rec.ReqPool); req != nil {
			r.reqs.set(rec.ReqPool, nil)
			m.dropReq(req)
		}
		return m.advance(r)

	case mpicall.SendInit, mpicall.RecvInit:
		kind := rkSend
		if rec.Func == mpicall.RecvInit {
			kind = rkRecv
		}
		m.acquireReq(r, rec.ReqPool, m.newReq(vreq{kind: kind, persistent: true, rec: rec, ev: ev}), ev)
		return m.advance(r)

	case mpicall.Start:
		q := rec.ReqPool
		if q < 0 {
			return m.advance(r)
		}
		req := r.reqs.get(q)
		if req == nil {
			m.diag(Error, RuleHandleRequest, []int{r.rank}, ev,
				"MPI_Start on request pool %d with no live request", q)
			return m.advance(r)
		}
		switch {
		case !req.persistent:
			m.diag(Error, RuleHandleRequest, []int{r.rank}, ev,
				"MPI_Start on a non-persistent request (pool %d)", q)
		case req.active:
			m.diag(Error, RuleHandleRequest, []int{r.rank}, ev,
				"MPI_Start on an already-active persistent request (pool %d)", q)
		default:
			req.active = true
			crec := req.rec
			if c := m.commOf(r, crec, ev); c != nil {
				if req.kind == rkSend {
					m.emitSend(r, c, crec, ev, false)
				} else if pr := m.makeRecv(r, c, crec.SrcRel, crec.Tag, -1, ev); pr != nil {
					m.postRecv(pr)
					req.recv = pr
				}
			}
		}
		return m.advance(r)

	case mpicall.CommFree:
		pool := rec.CommPool
		switch {
		case pool == 0:
			m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
				"MPI_Comm_free on communicator pool 0 (MPI_COMM_WORLD)")
		case r.comms.get(pool) == nil:
			m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
				"MPI_Comm_free on communicator pool %d with no live communicator", pool)
		default:
			r.comms.set(pool, nil)
		}
		return m.advance(r)

	case mpicall.FileWriteAt, mpicall.FileReadAt:
		if r.files.get(rec.FilePool) == nil {
			m.diag(Error, RuleHandleFile, []int{r.rank}, ev,
				"%s on file pool %d with no open file", rec.Func, rec.FilePool)
		}
		return m.advance(r)

	case mpicall.Ibarrier, mpicall.Ibcast, mpicall.Iallreduce:
		c := m.commOf(r, rec, ev)
		req := m.newReq(vreq{kind: rkColl, rec: rec, ev: ev})
		if c != nil {
			req.slot = m.arrive(r, c, rec, ev)
		}
		m.acquireReq(r, rec.ReqPool, req, ev)
		return m.advance(r)

	default: // the calls whose descriptor is BlockingColl
		if !r.inited {
			c := m.commOf(r, rec, ev)
			if c == nil {
				return m.advance(r)
			}
			if rec.Func.Desc().Kind == mpicall.KindFile && rec.Func != mpicall.FileOpen && r.files.get(rec.FilePool) == nil {
				m.diag(Error, RuleHandleFile, []int{r.rank}, ev,
					"%s on file pool %d with no open file", rec.Func, rec.FilePool)
				return m.advance(r)
			}
			r.curSlot, r.inited = m.arrive(r, c, rec, ev), true
		}
		if !r.curSlot.full {
			return false
		}
		m.completeColl(r, rec, r.curSlot, ev)
		return m.advance(r)
	}
}

// commOf resolves the record's communicator pool for rank r.
func (m *machine) commOf(r *lrank, rec *trace.Record, ev evRef) *vcomm {
	c := r.comms.get(rec.CommPool)
	if c == nil {
		m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
			"%s uses communicator pool %d before any communicator was created there", rec.Func, rec.CommPool)
		return nil
	}
	return c
}

// peerOf decodes a partner encoding to a world rank. The default scheme is
// the §2.2 relative offset within the communicator; with Options.AbsoluteRanks
// the field carries the partner's comm-local rank directly.
func (m *machine) peerOf(c *vcomm, me, rel int) (int, bool) {
	switch rel {
	case trace.NoRank:
		return procNull, true
	case trace.Wildcard:
		return anyPeer, true
	}
	sz := len(c.members)
	if m.opts.AbsoluteRanks {
		if rel < 0 || rel >= sz {
			return 0, false
		}
		return c.members[rel], true
	}
	if me < 0 || me >= len(c.index) {
		return 0, false
	}
	idx := c.index[me]
	if idx < 0 {
		return 0, false
	}
	return c.members[((idx+rel)%sz+sz)%sz], true
}

// emitSend posts the send half of rec; synchronous marks MPI_Ssend. Only a
// synchronous send's message is returned: a buffered one may already be
// matched and released.
func (m *machine) emitSend(r *lrank, c *vcomm, rec *trace.Record, ev evRef, synchronous bool) *vmsg {
	dst, ok := m.peerOf(c, r.rank, rec.DestRel)
	if !ok {
		m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
			"%s on a communicator rank %d is not a member of", rec.Func, r.rank)
		return nil
	}
	if dst == procNull {
		return nil
	}
	term := r.term
	if rec.Bytes == 0 && !m.zeroSeen[term] {
		m.zeroSeen[term] = true
		m.diag(Warning, RuleP2PBytes, []int{r.rank}, ev,
			"%s sends a zero-byte message to rank %d tag %d", rec.Func, dst, rec.Tag)
	}
	// Field by field: a composite literal is built aside and block-copied,
	// which showed as 6% of statics.Analyze's profile. A recycled message
	// holds stale values, so every field is set.
	msg := m.msgs.get()
	msg.id, msg.src, msg.dst, msg.commID = m.nextMsg, r.rank, dst, c.id
	msg.tag, msg.bytes, msg.ev, msg.term = rec.Tag, rec.Bytes, ev, term
	msg.matched, msg.synchronous = false, synchronous
	m.nextMsg++
	if m.hooks != nil {
		m.hooks.Send(msg.id, msg.src, msg.dst, msg.tag, msg.bytes, term)
	}
	m.postMsg(msg)
	if !synchronous {
		return nil
	}
	return msg
}

// makeRecv builds the receive described by (srcRel, tag); nil means the
// source resolves to MPI_PROC_NULL (or the rank left the communicator).
func (m *machine) makeRecv(r *lrank, c *vcomm, srcRel, tag, bytes int, ev evRef) *vrecv {
	src, ok := m.peerOf(c, r.rank, srcRel)
	if !ok {
		m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
			"receive on a communicator rank %d is not a member of", r.rank)
		return nil
	}
	if src == procNull {
		return nil
	}
	pr := m.recvs.get() // set field by field, as in emitSend
	pr.owner, pr.comm, pr.commID, pr.src, pr.tag = r.rank, c, c.id, src, tag
	pr.bytes, pr.ev, pr.term, pr.msgID, pr.orphan = bytes, ev, r.term, -1, false
	return pr
}

// matches applies the runtime's matching rule: same communicator instance,
// source and tag each equal or wildcard.
func matches(pr *vrecv, msg *vmsg) bool {
	return pr.commID == msg.commID &&
		(pr.src == anyPeer || pr.src == msg.src) &&
		(pr.tag == anyPeer || pr.tag == msg.tag)
}

// postMsg delivers a message: first posted matching receive wins (FIFO, as
// in the runtime); otherwise it queues in the destination's mailbox.
func (m *machine) postMsg(msg *vmsg) {
	if msg.dst >= 0 && msg.dst < len(m.posted) {
		q := m.posted[msg.dst]
		for i, pr := range q {
			if matches(pr, msg) {
				copy(q[i:], q[i+1:]) // FIFO removal in place; q is unaliased
				q[len(q)-1] = nil
				m.posted[msg.dst] = q[:len(q)-1]
				m.complete(pr, msg)
				return
			}
		}
	}
	mi := msg.dst
	if mi < 0 || mi >= len(m.posted) {
		mi = len(m.mailbox) - 1 // the unroutable-destination slot
	}
	m.mailbox[mi] = append(m.mailbox[mi], msg)
}

// postRecv posts a receive: earliest queued matching message wins;
// otherwise it joins the destination's posted list.
func (m *machine) postRecv(pr *vrecv) {
	q := m.mailbox[pr.owner]
	for i, msg := range q {
		if matches(pr, msg) {
			copy(q[i:], q[i+1:]) // FIFO removal in place; q is unaliased
			q[len(q)-1] = nil
			m.mailbox[pr.owner] = q[:len(q)-1]
			m.complete(pr, msg)
			return
		}
	}
	m.posted[pr.owner] = append(m.posted[pr.owner], pr)
}

// complete pairs a send with a receive, checks byte compatibility and
// releases whichever of the two nobody holds any more: a buffered message,
// and an orphaned receive.
func (m *machine) complete(pr *vrecv, msg *vmsg) {
	pr.msgID = msg.id
	m.checkBytes(pr, msg)
	if msg.synchronous {
		msg.matched = true
	} else {
		m.msgs.put(msg)
	}
	if pr.orphan {
		m.recvs.put(pr)
	}
}

// checkBytes reports a matched pair whose sizes disagree, once per pair of
// terminals.
func (m *machine) checkBytes(pr *vrecv, msg *vmsg) {
	if pr.bytes < 0 {
		return
	}
	key := [2]int{msg.term, pr.term}
	if m.byteSeen[key] {
		return
	}
	sb, rb := msg.bytes, pr.bytes
	switch {
	case m.opts.ExactBytes && sb != rb:
		m.byteSeen[key] = true
		m.diag(Error, RuleP2PBytes, []int{msg.src, pr.owner}, msg.ev,
			"matched pair on channel %d->%d tag %d transfers %d bytes but the receive expects %d",
			msg.src, pr.owner, msg.tag, sb, rb)
	case (sb == 0) != (rb == 0):
		m.byteSeen[key] = true
		m.diag(Error, RuleP2PBytes, []int{msg.src, pr.owner}, msg.ev,
			"matched pair on channel %d->%d tag %d mixes zero and nonzero sizes (%d vs %d bytes)",
			msg.src, pr.owner, msg.tag, sb, rb)
	}
}

func reqDone(req *vreq) bool {
	if req.persistent && !req.active {
		return true
	}
	switch req.kind {
	case rkSend:
		return true // buffered-send abstraction
	case rkRecv:
		return req.recv == nil || req.recv.msgID >= 0
	case rkColl:
		return req.slot == nil || req.slot.full
	}
	return true
}

func (m *machine) newReq(v vreq) *vreq {
	req := m.reqs.get()
	*req = v
	return req
}

// acquireReq binds a request to its pool number. Overwriting a polled entry
// is the Test-ambiguity implicit release; overwriting anything else live is
// a lifecycle violation. Either way the old request leaves the pool, and a
// request with no pool number never enters one.
func (m *machine) acquireReq(r *lrank, pool int, req *vreq, ev evRef) {
	if pool < 0 {
		m.dropReq(req)
		return
	}
	if old := r.reqs.get(pool); old != nil {
		if !old.polled {
			m.diag(Error, RuleHandleRequest, []int{r.rank}, ev,
				"request pool %d overwritten while its previous request is still live", pool)
		}
		m.dropReq(old)
	}
	r.reqs.set(pool, req)
}

// releaseReq discharges a completed request: persistent requests return to
// the inactive state (MPI keeps them pooled), others leave the pool. The
// discharging wait event (r.pc) is where a nonblocking receive's match
// becomes observable, so RecvComplete anchors there.
func (m *machine) releaseReq(r *lrank, pool int, req *vreq) {
	if pr := req.recv; pr != nil {
		if m.hooks != nil && pr.msgID >= 0 {
			m.hooks.RecvComplete(r.rank, r.pc, pr.msgID)
		}
		m.disown(pr)
		req.recv = nil
	}
	if req.persistent {
		req.active = false
		return
	}
	r.reqs.set(pool, nil)
	m.dropReq(req)
}

// dropReq releases a request that has left its pool (or never entered one)
// together with its holds on a receive and a collective slot.
func (m *machine) dropReq(req *vreq) {
	if req.recv != nil {
		m.disown(req.recv)
	}
	if req.slot != nil {
		m.unrefSlot(req.slot)
	}
	m.reqs.put(req)
}

// disown drops the owner's hold on a receive: a matched one is released, a
// posted one becomes an orphan that its match releases.
func (m *machine) disown(pr *vrecv) {
	if pr.msgID >= 0 {
		m.recvs.put(pr)
	} else {
		pr.orphan = true
	}
}

// unrefSlot drops one arrival's hold on a slot, releasing a full slot with
// no holder left.
func (m *machine) unrefSlot(slot *vslot) {
	if slot.refs--; slot.refs == 0 && slot.full {
		m.slots.put(slot)
	}
}

// arrive registers rank r at the collective slot its record names,
// checking that the call agrees with the slot's first arrival.
func (m *machine) arrive(r *lrank, c *vcomm, rec *trace.Record, ev evRef) *vslot {
	seq := r.collSeq.get(c.id)
	r.collSeq.set(c.id, seq+1)
	at := seq - c.slotBase
	for len(c.slots) <= at {
		c.slots = append(c.slots, nil)
	}
	slot := c.slots[at]
	if slot == nil {
		slot = m.slots.get()
		arrived := slices.Grow(slot.arrived[:0], len(c.members))[:len(c.members)]
		clear(arrived)
		*slot = vslot{comm: c, seq: seq, fn: rec.Func, root: rec.Root, op: rec.Op,
			firstEv: ev, arrived: arrived}
		c.slots[at] = slot
	}
	slot.refs++
	if !slot.flagged {
		switch {
		case rec.Func != slot.fn:
			slot.flagged = true
			m.diag(Error, RuleCollMismatch, []int{slot.firstEv.rank, r.rank}, ev,
				"collective step %d of a %d-rank communicator: rank %d issues %s while rank %d issues %s",
				seq, len(c.members), r.rank, rec.Func, slot.firstEv.rank, slot.fn)
		case rec.Root != slot.root:
			slot.flagged = true
			m.diag(Error, RuleCollMismatch, []int{slot.firstEv.rank, r.rank}, ev,
				"%s at collective step %d: rank %d uses root %d while rank %d uses root %d",
				rec.Func, seq, r.rank, rec.Root, slot.firstEv.rank, slot.root)
		case rec.Op != slot.op:
			slot.flagged = true
			m.diag(Error, RuleCollMismatch, []int{slot.firstEv.rank, r.rank}, ev,
				"%s at collective step %d: rank %d uses op %q while rank %d uses op %q",
				rec.Func, seq, r.rank, rec.Op, slot.firstEv.rank, slot.op)
		}
	}
	if rec.Func == mpicall.Alltoallv && len(rec.Counts) != len(c.members) {
		term := r.term
		if !m.cntSeen[term] {
			m.cntSeen[term] = true
			m.diag(Warning, RuleCollLength, []int{r.rank}, ev,
				"MPI_Alltoallv counts vector has %d entries for a %d-rank communicator",
				len(rec.Counts), len(c.members))
		}
	}
	switch rec.Func {
	case mpicall.CommSplit:
		if slot.splitArgs == nil {
			slot.splitArgs = map[int][2]int{}
		}
		slot.splitArgs[r.rank] = [2]int{rec.Color, rec.Key}
	case mpicall.CommDup:
		if slot.splitArgs == nil {
			slot.splitArgs = map[int][2]int{}
		}
		slot.splitArgs[r.rank] = [2]int{0, c.index[r.rank]}
	}
	if cr := c.index[r.rank]; cr >= 0 && slot.arrived[cr] == nil {
		slot.arrived[cr] = rec
		slot.arrivedN++
		if m.hooks != nil {
			m.hooks.CollArrive(r.rank, ev.idx, c.id, c.members, seq, rec.Func.Desc().BlockingColl, rec)
		}
		if slot.arrivedN == len(c.members) {
			slot.full = true
			c.closeSlot(at)
			m.resolveSlot(slot)
			if m.hooks != nil {
				m.hooks.CollComplete(c.id, seq)
			}
		}
	}
	return slot
}

// closeSlot takes a full slot off the communicator's open window. The
// window's closed head is copied down rather than resliced away, so its
// capacity is kept and arrive appends without reallocating.
func (c *vcomm) closeSlot(at int) {
	c.slots[at] = nil
	k := 0
	for k < len(c.slots) && c.slots[k] == nil {
		k++
	}
	c.slots = c.slots[:copy(c.slots, c.slots[k:])]
	c.slotBase += k
}

// resolveSlot computes a full slot's shared results: split/dup groups
// (ordered by key then world rank, mirroring World.resolveSplit) and the
// shared file identity for MPI_File_open.
func (m *machine) resolveSlot(slot *vslot) {
	if slot.splitArgs != nil {
		byColor := map[int][]int{}
		var colors []int
		for wr, ck := range slot.splitArgs { //maporder:ok — colors and members sorted below
			if ck[0] < 0 {
				continue
			}
			if _, ok := byColor[ck[0]]; !ok {
				colors = append(colors, ck[0])
			}
			byColor[ck[0]] = append(byColor[ck[0]], wr)
		}
		sort.Ints(colors)
		slot.groups = map[int]*vcomm{}
		for _, color := range colors {
			members := byColor[color]
			sort.Slice(members, func(i, j int) bool {
				ki, kj := slot.splitArgs[members[i]][1], slot.splitArgs[members[j]][1]
				if ki != kj {
					return ki < kj
				}
				return members[i] < members[j]
			})
			nc := m.newComm(members)
			for _, wr := range members {
				slot.groups[wr] = nc
			}
		}
	}
	if slot.fn == mpicall.FileOpen {
		if cr := slot.comm.index[slot.firstEv.rank]; cr >= 0 {
			if rec := slot.arrived[cr]; rec != nil {
				slot.file = &vfile{comm: slot.comm, name: rec.FileName}
			}
		}
	}
}

// completeColl applies rank-local effects of a completed collective.
func (m *machine) completeColl(r *lrank, rec *trace.Record, slot *vslot, ev evRef) {
	switch rec.Func {
	case mpicall.CommSplit, mpicall.CommDup:
		if rec.NewCommPool < 0 {
			return
		}
		nc := slot.groups[r.rank] // nil for MPI_UNDEFINED colors
		if nc == nil {
			return
		}
		if old := r.comms.get(rec.NewCommPool); old != nil && rec.NewCommPool != 0 {
			m.diag(Error, RuleHandleComm, []int{r.rank}, ev,
				"communicator pool %d overwritten while its previous communicator is still live", rec.NewCommPool)
		}
		r.comms.set(rec.NewCommPool, nc)
	case mpicall.FileOpen:
		if old := r.files.get(rec.FilePool); old != nil {
			m.diag(Error, RuleHandleFile, []int{r.rank}, ev,
				"file pool %d overwritten while its previous file is still open", rec.FilePool)
		}
		r.files.set(rec.FilePool, slot.file)
	case mpicall.FileClose:
		r.files.set(rec.FilePool, nil)
	}
}

// finishRank fires end-of-sequence rules for a rank that ran to completion:
// any live, never-polled, non-persistent request is a leaked nonblocking
// operation.
func (m *machine) finishRank(r *lrank) {
	var pools []int
	r.reqs.each(func(q int, _ *vreq) { pools = append(pools, q) })
	sort.Ints(pools)
	for _, q := range pools {
		req := r.reqs.get(q)
		if req.persistent || req.polled {
			continue
		}
		fn := "nonblocking operation"
		if req.rec != nil {
			fn = req.rec.Func.String()
		}
		m.diag(Error, RuleRequestLeak, []int{r.rank}, req.ev,
			"%s request (pool %d) escapes rank %d without a matching wait", fn, q, r.rank)
	}
}

type chanKey struct{ src, dst, tag int }

// reportChannels summarizes unmatched traffic per (src, dst, tag) channel.
func (m *machine) reportChannels() {
	sends := map[chanKey][]*vmsg{}
	for _, q := range m.mailbox {
		for _, msg := range q {
			k := chanKey{msg.src, msg.dst, msg.tag}
			sends[k] = append(sends[k], msg)
		}
	}
	for _, k := range sortedChanKeys(sends) {
		msgs := sends[k]
		m.diag(Warning, RuleP2PUnmatchedSend, []int{k.src, k.dst}, msgs[0].ev,
			"%d message(s) on channel %d->%d tag %d sent but never received", len(msgs), k.src, k.dst, k.tag)
	}
	recvs := map[chanKey][]*vrecv{}
	for _, q := range m.posted {
		for _, pr := range q {
			k := chanKey{pr.src, pr.owner, pr.tag}
			recvs[k] = append(recvs[k], pr)
		}
	}
	for _, k := range sortedChanKeys(recvs) {
		prs := recvs[k]
		src := fmt.Sprintf("rank %d", k.src)
		if k.src == anyPeer {
			src = "MPI_ANY_SOURCE"
		}
		tag := fmt.Sprintf("%d", k.tag)
		if k.tag == anyPeer {
			tag = "MPI_ANY_TAG"
		}
		m.diag(Error, RuleP2PUnmatchedRecv, []int{k.dst}, prs[0].ev,
			"%d receive(s) posted on rank %d from %s tag %s never matched by any send", len(prs), k.dst, src, tag)
	}
}

func sortedChanKeys[V any](mm map[chanKey]V) []chanKey {
	keys := make([]chanKey, 0, len(mm))
	for k := range mm { //maporder:ok — sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		if keys[i].dst != keys[j].dst {
			return keys[i].dst < keys[j].dst
		}
		return keys[i].tag < keys[j].tag
	})
	return keys
}

// reportCollLengths flags communicators whose members issued different
// numbers of collective steps. Only instances where every member finished
// cleanly could still hide a mismatch the slot machinery didn't surface, but
// the rule is cheap, so it runs over everything and dedupes per instance.
func (m *machine) reportCollLengths() {
	counts := map[int]map[int]int{} // instance id -> world rank -> steps
	insts := map[int]*vcomm{}
	for i := range m.ranks {
		r := &m.ranks[i]
		r.comms.each(func(_ int, c *vcomm) { insts[c.id] = c })
		rank := r.rank
		r.collSeq.each(func(id, n int) {
			if counts[id] == nil {
				counts[id] = map[int]int{}
			}
			counts[id][rank] = n
		})
	}
	ids := make([]int, 0, len(counts))
	for id := range counts { //maporder:ok — sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := insts[id]
		if c == nil {
			continue // freed everywhere; per-slot checks already covered it
		}
		var lo, hi, loRank, hiRank = -1, -1, -1, -1
		for _, wr := range c.members {
			n := counts[id][wr]
			if lo < 0 || n < lo {
				lo, loRank = n, wr
			}
			if hi < 0 || n > hi {
				hi, hiRank = n, wr
			}
		}
		if lo != hi {
			m.diag(Error, RuleCollLength, c.members, noEv,
				"members of a %d-rank communicator issue different collective counts: rank %d issues %d, rank %d issues %d",
				len(c.members), loRank, lo, hiRank, hi)
		}
	}
}
