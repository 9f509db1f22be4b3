package mpi

import (
	"siesta/internal/netmodel"
)

// Non-blocking collectives (MPI-3): the caller registers its arrival and
// receives a request that completes when every rank of the communicator has
// entered the operation. The collective sequencer is shared with the
// blocking path, so blocking and non-blocking collectives on one
// communicator stay totally ordered, as the standard requires.

// icollective registers arrival at a collective without blocking.
func (r *Rank) icollective(c *Comm, op netmodel.CollOp, bytes int) *request {
	w := r.world
	seq := r.seqs[c.id]
	r.seqs[c.id] = seq + 1
	req := r.newRequest(reqRecv)
	r.clock.Advance(w.cfg.Impl.CallOverhead())

	// Same guard as the blocking path: a slot created after fail would
	// never complete.
	r.abortIfFailed()
	key := collKey{commID: c.id, seq: seq}
	slot := w.collectiveSlot(c, seq, op)
	slot.arrived++
	if t := r.clock.Now(); t > slot.maxIn {
		slot.maxIn = t
	}
	if bytes > slot.maxBytes {
		slot.maxBytes = bytes
	}
	slot.waiters = append(slot.waiters, req)
	if slot.arrived == slot.expected {
		w.finishCollective(c, key, slot)
	}
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
