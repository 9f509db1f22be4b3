package mpi

import (
	"siesta/internal/mpicall"
	"siesta/internal/vtime"
)

// resolveRecv computes the virtual completion time of a matched transfer.
// For eager messages the data travels independently of the receiver; for
// rendezvous the transfer starts only when both sides are ready.
func resolveRecv(m *message, recvPost vtime.Time) vtime.Time {
	if m.eager {
		return vtime.Max(recvPost, m.readyTime.Add(m.wire))
	}
	start := vtime.Max(m.readyTime, recvPost)
	return start.Add(m.wire)
}

// completeMatch finalizes a (message, posted receive) pair and wakes the
// receiver. For rendezvous transfers it also resolves the send request
// and wakes the sender.
func (w *World) completeMatch(m *message, pr *postedRecv) {
	done := resolveRecv(m, pr.postTime)
	pr.req.done = true
	pr.req.time = float64(done)
	pr.req.st = Status{Source: m.srcComm, Tag: m.tag, Bytes: m.bytes}
	pr.req.matchedSrc, pr.req.matchedSeq = m.srcWorld, m.seq+1
	if pr.buf != nil && m.payload != nil {
		copy(pr.buf, m.payload)
	}
	w.wake(pr.owner)
	if !m.eager && m.sendReq != nil {
		m.sendReq.done = true
		m.sendReq.time = float64(done)
		w.wake(m.sender)
	}
}

// matches reports whether a posted receive accepts a message.
func (pr *postedRecv) matches(m *message) bool {
	if pr.commID != m.commID {
		return false
	}
	if pr.src != AnySource && pr.src != m.srcComm {
		return false
	}
	if pr.tag != AnyTag && pr.tag != m.tag {
		return false
	}
	return true
}

// postMessage routes a newly sent message: match against posted receives in
// post order, or enqueue as unexpected. The destination rank is woken
// either way — an unmatched arrival may still be what a blocked Probe is
// waiting for. A message the fault plan drops vanishes here: the receiver
// keeps waiting (and a rendezvous sender keeps waiting for the
// handshake), which the deadlock detector then reports.
//
// It returns the message's per-channel sequence number: posting hands
// ownership of m to the router (a matched message is recycled on the
// spot), so callers record the seq from the return value rather than
// reading m afterwards.
func (w *World) postMessage(m *message) int {
	seq := w.msgCount.next(m.srcWorld, m.dstWorld)
	m.seq = seq
	if !w.routeFaults(m) {
		w.msgs.put(m)
		return seq
	}
	queue := w.posted[m.dstWorld]
	for i, pr := range queue {
		if pr.matches(m) {
			w.posted[m.dstWorld] = removeAt(queue, i)
			w.completeMatch(m, pr)
			w.msgs.put(m)
			w.recvs.put(pr)
			return seq
		}
	}
	w.mailbox[m.dstWorld] = append(w.mailbox[m.dstWorld], m)
	w.wake(w.ranks[m.dstWorld])
	return seq
}

// postRecv registers a receive: match against unexpected messages in arrival
// order, or enqueue. Posting hands ownership of pr to the router — an
// immediate match recycles it, so callers must not touch pr afterwards
// (completion is observed through pr.req).
func (w *World) postRecv(pr *postedRecv) {
	box := w.mailbox[pr.owner.rank]
	for i, m := range box {
		if pr.matches(m) {
			w.mailbox[pr.owner.rank] = removeAt(box, i)
			w.completeMatch(m, pr)
			w.msgs.put(m)
			w.recvs.put(pr)
			return
		}
	}
	w.posted[pr.owner.rank] = append(w.posted[pr.owner.rank], pr)
}

// removeAt deletes q[i] in place, keeping the order of the rest, and clears
// the vacated tail slot so the queue keeps no recycled struct reachable.
// The queue keeps its capacity, so a steady post/match rate allocates
// nothing.
func removeAt[T any](q []*T, i int) []*T {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// buildMessage prices and assembles an outgoing message from r to
// dstWorld on c (drawn from the free list; the router recycles it on
// match). A sync message always takes the handshake; any other is eager
// when the implementation sends its size eagerly.
func (r *Rank) buildMessage(c *Comm, dstWorld, tag, bytes int, payload []byte, sync bool) *message {
	w := r.world
	var data []byte
	if payload != nil {
		data = append([]byte(nil), payload...)
	}
	// Field by field rather than by a composite literal, which the
	// compiler builds on the stack and copies: every field is set.
	m := w.msgs.get()
	m.commID, m.srcComm, m.srcWorld, m.dstWorld = c.id, c.RankOf(r.rank), r.rank, dstWorld
	m.tag, m.bytes, m.seq, m.payload = tag, bytes, 0, data
	m.eager, m.readyTime = !sync && w.cfg.Impl.Eager(bytes), r.clock.Now()
	m.wire = vtime.Duration(float64(w.cfg.Impl.WireTime(w.cfg.Platform, r.rank, dstWorld, bytes)) * w.commJitter)
	m.sendReq, m.sender = nil, r
	return m
}

// send is the one blocking send: Send, SendBytes and Ssend. An eager
// message completes locally and takes no request; a rendezvous or
// synchronous one blocks until the receiver matches, exactly like a real
// large send, on a handshake request made for it alone.
func (r *Rank) send(c *Comm, dst, tag, bytes int, payload []byte, sync bool) {
	fn := mpicall.Send
	if sync {
		fn = mpicall.Ssend
	}
	call := r.beginCall(&Call{Func: fn, Comm: c, Dest: dst, Tag: tag, Bytes: bytes})
	if dst != ProcNull {
		w := r.world
		dstWorld := c.WorldRank(dst)
		if sync {
			r.clock.Advance(w.cfg.Impl.CallOverhead())
		} else {
			r.clock.Advance(w.cfg.Impl.SendLocalCost(w.cfg.Platform, r.rank, dstWorld, bytes))
		}
		m := r.buildMessage(c, dstWorld, tag, bytes, payload, sync)
		var req *request
		if !m.eager {
			req = r.newRequest(reqSend)
			req.describe(dst, tag)
			m.sendReq = req
		}
		seq := w.postMessage(m)
		call.SentSeq, call.SentDst, call.SentBytes = seq+1, dstWorld, bytes
		if req != nil {
			detail := "rendezvous handshake"
			if sync {
				detail = "synchronous handshake"
			}
			w.waitCond(r, waitDesc{kind: waitPeer, detail: detail, req: req})
			r.clock.AdvanceTo(vtime.Time(req.time))
			r.freeRequest(req)
		}
	}
	r.endCall(call)
}

// isend is the one request-carrying send post: Isend, Sendrecv's send half
// and Start. It posts a message to dst (a rank in c, not ProcNull) that
// req tracks; an eager one completes req at once.
func (r *Rank) isend(call *Call, c *Comm, dst, tag, bytes int, req *request) {
	req.describe(dst, tag)
	dstWorld := c.WorldRank(dst)
	m := r.buildMessage(c, dstWorld, tag, bytes, nil, false)
	if m.eager {
		req.done = true
		req.time = float64(r.clock.Now())
	} else {
		m.sendReq = req
	}
	seq := r.world.postMessage(m)
	call.SentSeq, call.SentDst, call.SentBytes = seq+1, dstWorld, bytes
}

// irecv is the one receive post: Recv, Irecv, Sendrecv's receive half and
// Start. It posts a receive from src (a rank in c or AnySource, not
// ProcNull) that req tracks, copying any payload into buf.
func (r *Rank) irecv(c *Comm, src, tag int, buf []byte, req *request) {
	req.describe(src, tag)
	pr := r.world.recvs.get()
	*pr = postedRecv{
		commID: c.id, src: src, tag: tag,
		postTime: r.clock.Now(), req: req, owner: r, buf: buf,
	}
	r.world.postRecv(pr)
}

// completeNull completes a request on ProcNull at once.
func (r *Rank) completeNull(req *request) {
	req.done, req.nul = true, true
	req.time = float64(r.clock.Now())
}

// Send performs a blocking standard-mode send of bytes to dst (rank in c)
// with the given tag. Eager messages complete locally; rendezvous messages
// block until the receiver matches.
func (r *Rank) Send(c *Comm, dst, tag, bytes int) {
	r.send(c, dst, tag, bytes, nil, false)
}

// SendBytes is Send with an actual payload, for examples and tests that
// want data to arrive. len(data) is used as the message size.
func (r *Rank) SendBytes(c *Comm, dst, tag int, data []byte) {
	r.send(c, dst, tag, len(data), data, false)
}

// Recv performs a blocking receive from src (rank in c, or AnySource) with
// the given tag (or AnyTag). It returns the resolved status.
func (r *Rank) Recv(c *Comm, src, tag int) Status {
	return r.recvInto(c, src, tag, nil)
}

// RecvBytes is Recv copying any payload into buf.
func (r *Rank) RecvBytes(c *Comm, src, tag int, buf []byte) Status {
	return r.recvInto(c, src, tag, buf)
}

func (r *Rank) recvInto(c *Comm, src, tag int, buf []byte) Status {
	call := r.beginCall(&Call{Func: mpicall.Recv, Comm: c, Source: src, Tag: tag})
	var st Status
	if src != ProcNull {
		req := r.newRequest(reqRecv)
		r.irecv(c, src, tag, buf, req)
		st = r.waitOne(req, waitPeer)
		call.RecvSrcWorld, call.RecvSeq = req.matchedSrc, req.matchedSeq
		r.freeRequest(req)
	}
	call.Bytes = st.Bytes
	call.SourceResolved = st.Source
	r.endCall(call)
	return st
}

// Isend starts a non-blocking send and returns its request.
func (r *Rank) Isend(c *Comm, dst, tag, bytes int) Req {
	call := r.beginCall(&Call{Func: mpicall.Isend, Comm: c, Dest: dst, Tag: tag, Bytes: bytes})
	req := r.newRequest(reqSend)
	if dst == ProcNull {
		r.completeNull(req)
	} else {
		r.clock.Advance(r.world.cfg.Impl.CallOverhead())
		r.isend(call, c, dst, tag, bytes, req)
	}
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Irecv starts a non-blocking receive and returns its request.
func (r *Rank) Irecv(c *Comm, src, tag int) Req {
	call := r.beginCall(&Call{Func: mpicall.Irecv, Comm: c, Source: src, Tag: tag})
	req := r.newRequest(reqRecv)
	if src == ProcNull {
		r.completeNull(req)
	} else {
		r.clock.Advance(r.world.cfg.Impl.CallOverhead())
		r.irecv(c, src, tag, nil, req)
	}
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Wait blocks until the request completes and returns its status (zero for
// sends). A non-persistent request is freed on return; waiting on a zero
// or stale handle returns at once.
func (r *Rank) Wait(q Req) Status {
	call := r.beginCall(&Call{Func: mpicall.Wait, Request: q})
	st := r.waitOne(r.resolve(q, call.Func), waitRequest)
	call.Bytes = st.Bytes
	r.endCall(call)
	r.freeCompleted(q)
	return st
}

// Waitall blocks until every request completes, then frees the
// non-persistent ones.
func (r *Rank) Waitall(qs []Req) {
	call := r.beginCall(&Call{Func: mpicall.Waitall, Requests: qs})
	for _, q := range qs {
		r.waitOne(r.resolve(q, call.Func), waitRequest)
	}
	r.endCall(call)
	for _, q := range qs {
		r.freeCompleted(q)
	}
}

// waitOne blocks until req completes, as a wait of the given kind, and
// absorbs its completion time; a nil req (a zero or stale handle) is a
// no-op.
func (r *Rank) waitOne(req *request, kind waitKind) Status {
	if req == nil {
		return Status{}
	}
	w := r.world
	w.waitCond(r, waitDesc{kind: kind, req: req})
	r.clock.AdvanceTo(vtime.Time(req.time))
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	return req.st
}

// Test reports whether the request has completed, without blocking. When it
// has, the rank's clock absorbs the completion time, as MPI_Test does, and
// a non-persistent request is freed. A zero or stale handle tests true.
func (r *Rank) Test(q Req) (bool, Status) {
	call := r.beginCall(&Call{Func: mpicall.Test, Request: q})
	w := r.world
	req := r.resolve(q, call.Func)
	done := true
	if req != nil {
		done = req.done
	}
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	var st Status
	if done && req != nil {
		r.clock.AdvanceTo(vtime.Time(req.time))
		st = req.st
	}
	call.Bytes = st.Bytes
	call.Flag = done
	r.endCall(call)
	if !done {
		r.pollYield()
	} else {
		r.freeCompleted(q)
	}
	return done, st
}

// Sendrecv performs a combined send and receive, deadlock-free as per the
// standard (both halves are posted before either is waited on, priced as
// one call).
func (r *Rank) Sendrecv(c *Comm, dst, sendTag, sendBytes, src, recvTag int) Status {
	call := r.beginCall(&Call{
		Func: mpicall.Sendrecv, Comm: c,
		Dest: dst, Tag: sendTag, Bytes: sendBytes,
		Source: src, RecvTag: recvTag,
	})
	var sreq, rreq *request
	if dst != ProcNull {
		sreq = r.newRequest(reqSend)
		r.isend(call, c, dst, sendTag, sendBytes, sreq)
	}
	if src != ProcNull {
		rreq = r.newRequest(reqRecv)
		r.irecv(c, src, recvTag, nil, rreq)
	}
	var st Status
	if sreq != nil {
		r.waitOne(sreq, waitRequest)
		r.freeRequest(sreq)
	}
	if rreq != nil {
		st = r.waitOne(rreq, waitRequest)
		call.RecvSrcWorld, call.RecvSeq = rreq.matchedSrc, rreq.matchedSeq
		r.freeRequest(rreq)
	}
	call.SourceResolved = st.Source
	call.RecvBytes = st.Bytes
	r.endCall(call)
	return st
}
