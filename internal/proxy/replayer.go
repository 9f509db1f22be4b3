package proxy

import (
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// Replayer replays communication records on the simulated runtime for one
// rank, maintaining the handle pools (communicators, requests) that the
// trace layer's pool renaming presumes. It is shared by the Siesta proxy
// executor and the baseline replayers (ScalaBench, Pilgrim).
type Replayer struct {
	comms handles[*mpi.Comm]
	reqs  handles[mpi.Req]
	files map[int]*mpi.File
	// batch is the reused argument of Waitall and Testall; the runtime
	// reads it only during the call.
	batch []mpi.Req
}

// NewReplayer starts a replay session with the world communicator bound to
// pool id 0.
func NewReplayer(world *mpi.Comm) *Replayer {
	rp := &Replayer{files: map[int]*mpi.File{}}
	rp.comms.put(0, world)
	return rp
}

// maxPoolID bounds the pool ids a replay binds. The trace layer numbers
// handles with the smallest free id (trace.Pool), so a recorded program's
// ids stay below its peak count of live handles; a larger id comes from a
// corrupt or hostile program, and diverges instead of growing a pool to it.
const maxPoolID = 1 << 16

// handles is one handle pool, indexed by pool id.
type handles[T any] []handle[T]

type handle[T any] struct {
	v    T
	live bool
}

func (h handles[T]) get(id int) (T, bool) {
	if uint(id) < uint(len(h)) && h[id].live {
		return h[id].v, true
	}
	var zero T
	return zero, false
}

// put binds id to v, reporting false for an id outside [0, maxPoolID).
func (h *handles[T]) put(id int, v T) bool {
	if uint(id) >= maxPoolID {
		return false
	}
	if id >= len(*h) {
		*h = append(*h, make([]handle[T], id+1-len(*h))...)
	}
	(*h)[id] = handle[T]{v, true}
	return true
}

func (h handles[T]) del(id int) {
	if uint(id) < uint(len(h)) {
		h[id] = handle[T]{}
	}
}

// putReq binds a request a record created to the record's pool id.
func (rp *Replayer) putReq(r *mpi.Rank, rec *trace.Record, q mpi.Req) error {
	if !rp.reqs.put(rec.ReqPool, q) {
		return divergef(r.Rank(), rec.Func, "request pool id %d out of range", rec.ReqPool)
	}
	return nil
}

// putComm binds a communicator a record created to the record's new pool
// id.
func (rp *Replayer) putComm(r *mpi.Rank, rec *trace.Record, c *mpi.Comm) error {
	if !rp.comms.put(rec.NewCommPool, c) {
		return divergef(r.Rank(), rec.Func, "communicator pool id %d out of range", rec.NewCommPool)
	}
	return nil
}

// decodeRel turns a relative-rank encoding back into a comm rank for this
// process.
func decodeRel(c *mpi.Comm, me, rel int) int {
	switch rel {
	case trace.Wildcard:
		return mpi.AnySource
	case trace.NoRank:
		return mpi.ProcNull
	}
	return (me + rel) % c.Size()
}

func decodeTag(tag int) int {
	if tag == trace.Wildcard {
		return mpi.AnyTag
	}
	if tag == trace.NoRank {
		return 0
	}
	return tag
}

// ExecComm replays one communication record. It returns a *DivergenceError
// when the record cannot be executed faithfully — it references a handle
// pool id the replay never created, is a computation record (those are the
// caller's business; different replayers price them differently), or names
// an unsupported function. Handle-lenient operations (Waitall, Testall,
// Test, Request_free) skip missing requests silently, matching the trace
// layer's compression, which may drop completed-request bookkeeping;
// handle-strict ones (Wait, Waitany, Start, File ops) diverge.
func (rp *Replayer) ExecComm(r *mpi.Rank, rec *trace.Record) error {
	if rec.IsCompute() {
		return divergef(r.Rank(), rec.Func, "ExecComm called with a computation record")
	}
	c, ok := rp.comms.get(rec.CommPool)
	if !ok {
		return divergef(r.Rank(), rec.Func, "dangling communicator pool id %d", rec.CommPool)
	}
	me := c.RankOf(r.Rank())
	var f *mpi.File
	if rec.Func.Desc().Kind == mpicall.KindFile && rec.Func != mpicall.FileOpen {
		if f, ok = rp.files[rec.FilePool]; !ok {
			return divergef(r.Rank(), rec.Func, "dangling file pool id %d", rec.FilePool)
		}
	}
	switch rec.Func {
	case mpicall.Send:
		r.Send(c, decodeRel(c, me, rec.DestRel), rec.Tag, rec.Bytes)
	case mpicall.Ssend:
		r.Ssend(c, decodeRel(c, me, rec.DestRel), rec.Tag, rec.Bytes)
	case mpicall.Probe:
		r.Probe(c, decodeRel(c, me, rec.SrcRel), decodeTag(rec.Tag))
	case mpicall.Iprobe:
		r.Iprobe(c, decodeRel(c, me, rec.SrcRel), decodeTag(rec.Tag))
	case mpicall.Recv:
		r.Recv(c, decodeRel(c, me, rec.SrcRel), decodeTag(rec.Tag))
	case mpicall.Isend:
		return rp.putReq(r, rec, r.Isend(c, decodeRel(c, me, rec.DestRel), rec.Tag, rec.Bytes))
	case mpicall.Irecv:
		return rp.putReq(r, rec, r.Irecv(c, decodeRel(c, me, rec.SrcRel), decodeTag(rec.Tag)))
	case mpicall.Wait:
		req, ok := rp.reqs.get(rec.ReqPool)
		if !ok {
			return divergef(r.Rank(), rec.Func, "dangling request pool id %d", rec.ReqPool)
		}
		r.Wait(req)
		if !req.Persistent() {
			rp.reqs.del(rec.ReqPool)
		}
	case mpicall.Waitall:
		rp.batch = rp.batch[:0]
		for _, q := range rec.ReqPools {
			if req, ok := rp.reqs.get(q); ok {
				rp.batch = append(rp.batch, req)
				if !req.Persistent() {
					rp.reqs.del(q)
				}
			}
		}
		r.Waitall(rp.batch)
	case mpicall.Test:
		if req, ok := rp.reqs.get(rec.ReqPool); ok {
			if done, _ := r.Test(req); done {
				rp.reqs.del(rec.ReqPool)
			}
		}
	case mpicall.Waitany:
		// Replay deterministically waits on the request the trace saw
		// complete; the others stay pending.
		req, ok := rp.reqs.get(rec.ReqPool)
		if !ok {
			return divergef(r.Rank(), rec.Func, "dangling request pool id %d", rec.ReqPool)
		}
		r.Wait(req)
		rp.reqs.del(rec.ReqPool)
	case mpicall.Testall:
		rp.batch = rp.batch[:0]
		for _, q := range rec.ReqPools {
			if req, ok := rp.reqs.get(q); ok {
				rp.batch = append(rp.batch, req)
			}
		}
		if r.Testall(rp.batch) {
			for _, q := range rec.ReqPools {
				rp.reqs.del(q)
			}
		}
	case mpicall.Sendrecv:
		r.Sendrecv(c, decodeRel(c, me, rec.DestRel), rec.Tag, rec.Bytes,
			decodeRel(c, me, rec.SrcRel), decodeTag(rec.RecvTag))
	case mpicall.Barrier:
		r.Barrier(c)
	case mpicall.Bcast:
		r.Bcast(c, rec.Root, rec.Bytes)
	case mpicall.Reduce:
		r.Reduce(c, rec.Root, rec.Bytes, mpi.ReduceOp(rec.Op))
	case mpicall.Allreduce:
		r.Allreduce(c, rec.Bytes, mpi.ReduceOp(rec.Op))
	case mpicall.Scan:
		r.Scan(c, rec.Bytes, mpi.ReduceOp(rec.Op))
	case mpicall.Exscan:
		r.Exscan(c, rec.Bytes, mpi.ReduceOp(rec.Op))
	case mpicall.ReduceScatter:
		r.ReduceScatter(c, rec.Bytes, mpi.ReduceOp(rec.Op))
	case mpicall.Gather:
		r.Gather(c, rec.Root, rec.Bytes)
	case mpicall.Gatherv:
		r.Gatherv(c, rec.Root, rec.Bytes)
	case mpicall.Scatter:
		r.Scatter(c, rec.Root, rec.Bytes)
	case mpicall.Allgather:
		r.Allgather(c, rec.Bytes)
	case mpicall.Allgatherv:
		r.Allgatherv(c, rec.Bytes)
	case mpicall.Alltoall:
		r.Alltoall(c, rec.Bytes)
	case mpicall.Alltoallv:
		counts := rec.Counts
		if len(counts) != c.Size() {
			counts = make([]int, c.Size())
			copy(counts, rec.Counts)
		}
		if err := r.Alltoallv(c, counts); err != nil {
			return divergef(r.Rank(), rec.Func, "%v", err)
		}
	case mpicall.CommSplit:
		nc := r.CommSplit(c, rec.Color, rec.Key)
		if rec.NewCommPool >= 0 && nc != nil {
			return rp.putComm(r, rec, nc)
		}
	case mpicall.CommDup:
		nc := r.CommDup(c)
		if rec.NewCommPool >= 0 {
			return rp.putComm(r, rec, nc)
		}
	case mpicall.CommFree:
		r.CommFree(c)
		rp.comms.del(rec.CommPool)
	case mpicall.Ibarrier:
		return rp.putReq(r, rec, r.Ibarrier(c))
	case mpicall.Ibcast:
		return rp.putReq(r, rec, r.Ibcast(c, rec.Root, rec.Bytes))
	case mpicall.Iallreduce:
		return rp.putReq(r, rec, r.Iallreduce(c, rec.Bytes, mpi.ReduceOp(rec.Op)))
	case mpicall.SendInit:
		return rp.putReq(r, rec, r.SendInit(c, decodeRel(c, me, rec.DestRel), rec.Tag, rec.Bytes))
	case mpicall.RecvInit:
		return rp.putReq(r, rec, r.RecvInit(c, decodeRel(c, me, rec.SrcRel), decodeTag(rec.Tag)))
	case mpicall.Start:
		req, ok := rp.reqs.get(rec.ReqPool)
		if !ok {
			return divergef(r.Rank(), rec.Func, "dangling request pool id %d", rec.ReqPool)
		}
		r.Start(req)
	case mpicall.RequestFree:
		if req, ok := rp.reqs.get(rec.ReqPool); ok {
			r.RequestFree(req)
			rp.reqs.del(rec.ReqPool)
		}
	case mpicall.FileOpen:
		rp.files[rec.FilePool] = r.FileOpen(c, rec.FileName)
	case mpicall.FileClose:
		r.FileClose(f)
		delete(rp.files, rec.FilePool)
	case mpicall.FileWriteAt:
		r.FileWriteAt(f, rec.OffsetRel+me*rec.Bytes, rec.Bytes)
	case mpicall.FileReadAt:
		r.FileReadAt(f, rec.OffsetRel+me*rec.Bytes, rec.Bytes)
	case mpicall.FileWriteAtAll:
		r.FileWriteAtAll(f, rec.OffsetRel+me*rec.Bytes, rec.Bytes)
	case mpicall.FileReadAtAll:
		r.FileReadAtAll(f, rec.OffsetRel+me*rec.Bytes, rec.Bytes)
	default:
		return divergef(r.Rank(), rec.Func, "unsupported function")
	}
	return nil
}
