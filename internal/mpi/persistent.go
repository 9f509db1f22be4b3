package mpi

import (
	"siesta/internal/vtime"
)

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
func (r *Rank) SendInit(c *Comm, dst, tag, bytes int) *Request {
	call := r.beginCall(Call{Func: "MPI_Send_init", Comm: c, Dest: dst, Tag: tag, Bytes: bytes})
	req := r.newRequest(reqSend)
	req.describe(dst, tag)
	req.persistent = &persistentArgs{comm: c, peer: dst, tag: tag, bytes: bytes}
	req.done = true // inactive persistent requests are "complete"
	req.time = float64(r.clock.Now())
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	call.Request = req
	r.endCall(call)
	return req
}

// RecvInit creates an inactive persistent receive request.
func (r *Rank) RecvInit(c *Comm, src, tag int) *Request {
	call := r.beginCall(Call{Func: "MPI_Recv_init", Comm: c, Source: src, Tag: tag})
	req := r.newRequest(reqRecv)
	req.describe(src, tag)
	req.persistent = &persistentArgs{comm: c, peer: src, tag: tag}
	req.done = true
	req.time = float64(r.clock.Now())
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	call.Request = req
	r.endCall(call)
	return req
}

// Start activates a persistent request, like Isend/Irecv with the bound
// parameters.
func (r *Rank) Start(req *Request) {
	if req == nil || req.persistent == nil {
		panic(mpiErrorf(ErrRequest, r.rank, "MPI_Start", "request is not persistent"))
	}
	if req.owner != r.rank {
		panic(mpiErrorf(ErrRequest, r.rank, "MPI_Start",
			"starting a request owned by rank %d", req.owner))
	}
	call := r.beginCall(Call{Func: "MPI_Start", Request: req})
	w := r.world
	pa := req.persistent
	req.done = false
	req.st = Status{}
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	if req.kind == reqSend {
		if pa.peer == ProcNull {
			req.done, req.nul = true, true
			req.time = float64(r.clock.Now())
		} else {
			dstWorld := pa.comm.WorldRank(pa.peer)
			m := r.buildMessage(pa.comm, pa.peer, pa.tag, pa.bytes, nil, req)
			m.sender = r
			if m.eager {
				req.done = true
				req.time = float64(r.clock.Now())
				m.sendReq = nil
			}
			w.mu.Lock()
			seq := w.postMessage(m)
			w.mu.Unlock()
			call.SentSeq, call.SentDst, call.SentBytes = seq+1, dstWorld, pa.bytes
		}
	} else {
		if pa.peer == ProcNull {
			req.done, req.nul = true, true
			req.time = float64(r.clock.Now())
		} else {
			pr := getPostedRecv()
			*pr = postedRecv{
				commID: pa.comm.id, src: pa.peer, tag: pa.tag,
				postTime: r.clock.Now(), req: req, owner: r,
			}
			w.mu.Lock()
			w.postRecv(pr)
			w.mu.Unlock()
		}
	}
	r.endCall(call)
}

// Startall activates a set of persistent requests.
func (r *Rank) Startall(reqs []*Request) {
	for _, req := range reqs {
		r.Start(req)
	}
}

// RequestFree releases a persistent request. (Non-persistent requests are
// freed implicitly by Wait, as in MPI.)
func (r *Rank) RequestFree(req *Request) {
	call := r.beginCall(Call{Func: "MPI_Request_free", Request: req})
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	req.persistent = nil
	r.endCall(call)
}

// resetIfPersistent returns a completed persistent request to the inactive
// state after a successful Wait, preserving its identity for the next Start.
func resetIfPersistent(req *Request) {
	if req != nil && req.persistent != nil {
		req.done = true // inactive again, immediately waitable
	}
}

var _ = vtime.Duration(0)
