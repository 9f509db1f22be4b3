package mpi

import "siesta/internal/netmodel"

// Non-blocking collectives (MPI-3): the caller registers its arrival and
// receives a request that completes when every rank of the communicator has
// entered the operation. They arrive through the blocking collectives' own
// step, so blocking and non-blocking collectives on one communicator stay
// totally ordered, as the standard requires.

// icollective registers arrival at a collective without blocking.
func (r *Rank) icollective(c *Comm, price netmodel.CollOp, bytes int) *request {
	req := r.newRequest(reqRecv)
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	r.collective(c, price, bytes, req)
	return req
}

// Ibarrier starts a non-blocking barrier.
func (r *Rank) Ibarrier(c *Comm) Req {
	call := r.beginCall(&Call{Func: "MPI_Ibarrier", Comm: c})
	req := r.icollective(c, netmodel.Barrier, 0)
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Ibcast starts a non-blocking broadcast.
func (r *Rank) Ibcast(c *Comm, root, bytes int) Req {
	call := r.beginCall(&Call{Func: "MPI_Ibcast", Comm: c, Root: root, Bytes: bytes})
	req := r.icollective(c, netmodel.Bcast, bytes)
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}

// Iallreduce starts a non-blocking allreduce.
func (r *Rank) Iallreduce(c *Comm, bytes int, op ReduceOp) Req {
	call := r.beginCall(&Call{Func: "MPI_Iallreduce", Comm: c, Bytes: bytes, Op: op})
	req := r.icollective(c, netmodel.Allreduce, bytes)
	call.Request = r.handle(req)
	r.endCall(call)
	return call.Request
}
