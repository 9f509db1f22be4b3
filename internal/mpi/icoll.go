package mpi

import (
	"siesta/internal/mpicall"
	"siesta/internal/netmodel"
)

// Non-blocking collectives (MPI-3): the caller registers its arrival and
// receives a request that completes when every rank of the communicator has
// entered the operation. They arrive through the blocking collectives' own
// step, so blocking and non-blocking collectives on one communicator stay
// totally ordered, as the standard requires.

// icollective is one whole non-blocking collective call c: the rank's
// arrival, priced as price over bytes, and the request that completes
// with the collective.
func (r *Rank) icollective(c *Call, price netmodel.CollOp, bytes int) Req {
	call := r.beginCall(c)
	req := r.newRequest(reqRecv)
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	r.arrive(call.Comm, price, bytes, nil, req)
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Ibarrier starts a non-blocking barrier.
func (r *Rank) Ibarrier(c *Comm) Req {
	return r.icollective(&Call{Func: mpicall.Ibarrier, Comm: c}, netmodel.Barrier, 0)
}

// Ibcast starts a non-blocking broadcast.
func (r *Rank) Ibcast(c *Comm, root, bytes int) Req {
	return r.icollective(&Call{Func: mpicall.Ibcast, Comm: c, Root: root, Bytes: bytes}, netmodel.Bcast, bytes)
}

// Iallreduce starts a non-blocking allreduce.
func (r *Rank) Iallreduce(c *Comm, bytes int, op ReduceOp) Req {
	return r.icollective(&Call{Func: mpicall.Iallreduce, Comm: c, Bytes: bytes, Op: op}, netmodel.Allreduce, bytes)
}
