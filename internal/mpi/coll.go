package mpi

import (
	"siesta/internal/mpicall"
	"siesta/internal/netmodel"
)

// fileIO is the runtime-local pricing op of collective file I/O: its slot
// sums the members' bytes (the aggregate volume) instead of taking their
// maximum, and finishCollective prices it with the filesystem model.
const fileIO netmodel.CollOp = -1

// collective is one whole blocking collective call c: the rank's arrival
// at its next collective on c.Comm, priced as price over bytes, and the
// wait for its completion; see arrive.
func (r *Rank) collective(c *Call, price netmodel.CollOp, bytes int) {
	call := r.beginCall(c)
	r.world.leave(r.arrive(call.Comm, price, bytes, nil, nil))
	r.endCall(call)
}

// arrive is the one step every collective shares: blocking,
// non-blocking, communicator-creating and file I/O. All ranks of c must
// arrive with the same sequence number; the slot completes when the last
// one does, and every rank leaves at max(arrival times) + modelled cost.
// A blocking caller (req nil) waits for that and gets the completed slot
// back, which it must hand to World.leave after its last read; a
// non-blocking one returns nil at once, and the slot completes req.
// split, when non-nil, is the rank's (color, key) for a
// communicator-creating call. A rank whose call, root or reduction op
// differs from the first arrival's (two ranks disagreeing on the
// collective call sequence) raises an MPIError instead of silently
// merging the calls.
func (r *Rank) arrive(c *Comm, price netmodel.CollOp, bytes int, split *[2]int, req *request) *collSlot {
	w := r.world
	for len(r.seqs) <= c.id {
		r.seqs = append(r.seqs, 0)
	}
	seq := r.seqs[c.id]
	r.seqs[c.id] = seq + 1

	call := r.curCall
	slot := w.collectiveSlot(c, seq, price, call)
	if call.Func != slot.fn || call.Root != slot.root || call.Op != slot.op {
		panic(mpiErrorf(ErrComm, r.rank, call.Func.String(),
			"collective mismatch on comm %d seq %d: %s (root %d, op %q) arrives while %s (root %d, op %q) is in progress",
			c.id, seq, call.Func, call.Root, call.Op, slot.fn, slot.root, slot.op))
	}
	slot.arrived++
	if t := r.clock.Now(); t > slot.maxIn {
		slot.maxIn = t
	}
	if price == fileIO {
		slot.bytes += bytes
	} else if bytes > slot.bytes {
		slot.bytes = bytes
	}
	if split != nil {
		if slot.splitArgs == nil {
			slot.splitArgs = map[int][2]int{}
		}
		slot.splitArgs[r.rank] = *split
	}
	if req != nil {
		slot.waiters = append(slot.waiters, req)
	} else {
		slot.readers++
	}
	if slot.arrived == slot.expected {
		w.finishCollective(c, seq, slot)
	}
	if req != nil {
		return nil
	}
	w.waitCond(r, waitDesc{kind: waitColl, slot: slot, comm: c.id, seq: seq})
	r.clock.AdvanceTo(slot.outTime)
	return slot
}

// Barrier blocks until all ranks of c have entered it.
func (r *Rank) Barrier(c *Comm) {
	r.collective(&Call{Func: mpicall.Barrier, Comm: c}, netmodel.Barrier, 0)
}

// Bcast broadcasts bytes from root to all ranks of c.
func (r *Rank) Bcast(c *Comm, root, bytes int) {
	r.collective(&Call{Func: mpicall.Bcast, Comm: c, Root: root, Bytes: bytes}, netmodel.Bcast, bytes)
}

// Reduce reduces bytes from all ranks of c onto root with the given op.
func (r *Rank) Reduce(c *Comm, root, bytes int, op ReduceOp) {
	r.collective(&Call{Func: mpicall.Reduce, Comm: c, Root: root, Bytes: bytes, Op: op}, netmodel.Reduce, bytes)
}

// Allreduce reduces bytes across all ranks of c, leaving the result
// everywhere.
func (r *Rank) Allreduce(c *Comm, bytes int, op ReduceOp) {
	r.collective(&Call{Func: mpicall.Allreduce, Comm: c, Bytes: bytes, Op: op}, netmodel.Allreduce, bytes)
}

// Gather gathers bytes per rank onto root.
func (r *Rank) Gather(c *Comm, root, bytes int) {
	r.collective(&Call{Func: mpicall.Gather, Comm: c, Root: root, Bytes: bytes}, netmodel.Gather, bytes)
}

// Scatter scatters bytes per rank from root.
func (r *Rank) Scatter(c *Comm, root, bytes int) {
	r.collective(&Call{Func: mpicall.Scatter, Comm: c, Root: root, Bytes: bytes}, netmodel.Scatter, bytes)
}

// Allgather gathers bytes per rank to all ranks.
func (r *Rank) Allgather(c *Comm, bytes int) {
	r.collective(&Call{Func: mpicall.Allgather, Comm: c, Bytes: bytes}, netmodel.Allgather, bytes)
}

// Alltoall exchanges bytes with every rank of c.
func (r *Rank) Alltoall(c *Comm, bytes int) {
	r.collective(&Call{Func: mpicall.Alltoall, Comm: c, Bytes: bytes}, netmodel.Alltoall, bytes*c.Size())
}

// Alltoallv exchanges per-destination byte counts with every rank of c;
// counts[i] is the byte count this rank sends to comm rank i. A counts
// vector that does not cover the communicator is an MPI_ERR_COUNT error,
// returned without entering the collective (so the other ranks deadlock
// on the missing participant rather than the process dying).
func (r *Rank) Alltoallv(c *Comm, counts []int) error {
	if len(counts) != c.Size() {
		return mpiErrorf(ErrCount, r.rank, mpicall.Alltoallv.String(),
			"counts length %d != comm size %d", len(counts), c.Size())
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	r.collective(&Call{Func: mpicall.Alltoallv, Comm: c, Bytes: total, Counts: append([]int(nil), counts...)}, netmodel.Alltoall, total)
	return nil
}

// Allgatherv gathers per-rank byte counts to all ranks; bytes is this rank's
// contribution.
func (r *Rank) Allgatherv(c *Comm, bytes int) {
	r.collective(&Call{Func: mpicall.Allgatherv, Comm: c, Bytes: bytes}, netmodel.Allgather, bytes)
}

// Gatherv gathers a variable per-rank byte count onto root.
func (r *Rank) Gatherv(c *Comm, root, bytes int) {
	r.collective(&Call{Func: mpicall.Gatherv, Comm: c, Root: root, Bytes: bytes}, netmodel.Gather, bytes)
}

// CommSplit partitions c by color; ranks sharing a color form a new
// communicator ordered by key then world rank. A negative color returns nil
// (MPI_UNDEFINED). New communicator ids are assigned deterministically.
func (r *Rank) CommSplit(c *Comm, color, key int) *Comm {
	call := r.beginCall(&Call{Func: mpicall.CommSplit, Comm: c, Color: color, Key: key})
	slot := r.arrive(c, netmodel.Barrier, 0, &[2]int{color, key}, nil)
	nc := slot.newComms[r.rank]
	r.world.leave(slot)
	call.NewComm = nc
	r.endCall(call)
	return nc
}

// CommDup duplicates c with a fresh id.
func (r *Rank) CommDup(c *Comm) *Comm {
	call := r.beginCall(&Call{Func: mpicall.CommDup, Comm: c})
	slot := r.arrive(c, netmodel.Barrier, 0, &[2]int{0, c.RankOf(r.rank)}, nil)
	nc := slot.newComms[r.rank]
	r.world.leave(slot)
	call.NewComm = nc
	r.endCall(call)
	return nc
}

// CommFree releases a communicator handle. The simulated runtime keeps no
// per-comm state worth reclaiming, but the call is intercepted so the trace
// layer can recycle its communicator pool ids, as the paper requires.
func (r *Rank) CommFree(c *Comm) {
	call := r.beginCall(&Call{Func: mpicall.CommFree, Comm: c})
	r.clock.Advance(r.world.cfg.Impl.CallOverhead())
	r.endCall(call)
}

// Wtime mirrors MPI_Wtime: the rank's virtual time in seconds.
func (r *Rank) Wtime() float64 { return float64(r.clock.Now()) }
