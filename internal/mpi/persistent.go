package mpi

import "siesta/internal/mpicall"

// Persistent-request support (MPI_Send_init / MPI_Recv_init / MPI_Start /
// MPI_Request_free): production codes hoist fixed communication patterns
// into persistent requests, so a credible tracer must carry them. A
// persistent request binds the call parameters once; each Start activates
// one transfer; Wait completes the transfer and returns the request to the
// inactive (reusable) state instead of freeing it.

// persistentArgs stores the bound parameters of a persistent request.
type persistentArgs struct {
	comm  *Comm
	peer  int // dst for sends, src for receives
	tag   int
	bytes int
}

// SendInit creates an inactive persistent send request.
func (r *Rank) SendInit(c *Comm, dst, tag, bytes int) Req {
	call := r.beginCall(&Call{Func: mpicall.SendInit, Comm: c, Dest: dst, Tag: tag, Bytes: bytes})
	return r.requestInit(call, reqSend, persistentArgs{comm: c, peer: dst, tag: tag, bytes: bytes})
}

// RecvInit creates an inactive persistent receive request.
func (r *Rank) RecvInit(c *Comm, src, tag int) Req {
	call := r.beginCall(&Call{Func: mpicall.RecvInit, Comm: c, Source: src, Tag: tag})
	return r.requestInit(call, reqRecv, persistentArgs{comm: c, peer: src, tag: tag})
}

// requestInit ends an init call with an inactive persistent request of
// the given kind bound to pa.
func (r *Rank) requestInit(call *Call, kind int, pa persistentArgs) Req {
	req := r.newRequest(kind)
	req.describe(pa.peer, pa.tag)
	req.persistent = &pa
	req.done = true // inactive persistent requests are "complete"
	req.time = float64(r.clock.Now())
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Start activates a persistent request, like Isend/Irecv with the bound
// parameters.
func (r *Rank) Start(q Req) {
	req := r.resolve(q, mpicall.Start)
	if req == nil || req.persistent == nil {
		panic(mpiErrorf(ErrRequest, r.rank, mpicall.Start.String(), "request is not persistent"))
	}
	call := r.beginCall(&Call{Func: mpicall.Start, Request: q})
	pa := req.persistent
	req.done = false
	req.st = Status{}
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	switch {
	case pa.peer == ProcNull:
		r.completeNull(req)
	case req.kind == reqSend:
		r.isend(call, pa.comm, pa.peer, pa.tag, pa.bytes, req)
	default:
		r.irecv(pa.comm, pa.peer, pa.tag, nil, req)
	}
	r.endCall(call)
}

// Startall activates a set of persistent requests.
func (r *Rank) Startall(qs []Req) {
	for _, q := range qs {
		r.Start(q)
	}
}

// RequestFree frees a request, persistent or not, and turns its handle
// stale. (Non-persistent requests are freed implicitly by the Wait or Test
// that completes them, as in MPI.) A request still in flight is detached
// from its slot first: the router completes the old object, which nothing
// reads any more, and the slot's next owner gets a fresh one.
func (r *Rank) RequestFree(q Req) {
	req := r.resolve(q, mpicall.RequestFree)
	call := r.beginCall(&Call{Func: mpicall.RequestFree, Request: q})
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	r.endCall(call)
	if req == nil {
		return
	}
	if !req.done {
		r.reqs[req.slot] = &request{slot: req.slot, gen: req.gen}
		req = r.reqs[req.slot]
	}
	r.freeRequest(req)
}
