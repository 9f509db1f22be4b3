package mpi

import (
	"fmt"
	"math"

	"siesta/internal/mpicall"
	"siesta/internal/netmodel"
	"siesta/internal/vtime"
)

// This file extends the runtime beyond the calls the paper's evaluation
// exercises, to the surface a production tracer meets in the wild:
// synchronous sends, probes, the full wait/test family, prefix-scan
// collectives, and Cartesian topology helpers.

// Ssend performs a synchronous-mode send: it completes only after the
// receiver has posted a matching receive, regardless of message size (the
// rendezvous path unconditionally).
func (r *Rank) Ssend(c *Comm, dst, tag, bytes int) {
	r.send(c, dst, tag, bytes, nil, true)
}

// Probe blocks until a message matching (src, tag) is available without
// consuming it, and returns its status. A probe of ProcNull completes at
// once with the status a receive from ProcNull returns.
func (r *Rank) Probe(c *Comm, src, tag int) Status {
	call := r.beginCall(&Call{Func: mpicall.Probe, Comm: c, Source: src, Tag: tag})
	w := r.world
	var st Status
	if src != ProcNull {
		probe := w.recvs.get()
		*probe = postedRecv{
			commID: c.id, src: src, tag: tag,
			postTime: r.clock.Now(), owner: r,
		}
		w.waitCond(r, waitDesc{kind: waitProbe, probe: probe})
		if m := w.findUnexpected(probe); m != nil {
			st = Status{Source: m.srcComm, Tag: m.tag, Bytes: m.bytes}
			// The probe observes the message once it could have arrived.
			r.clock.AdvanceTo(resolveRecv(m, probe.postTime))
		}
		w.recvs.put(probe)
	}
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	call.Bytes = st.Bytes
	call.SourceResolved = st.Source
	r.endCall(call)
	return st
}

// Iprobe reports whether a matching message is available, without blocking
// or consuming it. A probe of ProcNull finds at once, with the status a
// receive from ProcNull returns.
func (r *Rank) Iprobe(c *Comm, src, tag int) (bool, Status) {
	call := r.beginCall(&Call{Func: mpicall.Iprobe, Comm: c, Source: src, Tag: tag})
	w := r.world
	var st Status
	found := src == ProcNull
	if m := w.findUnexpected(&postedRecv{commID: c.id, src: src, tag: tag, owner: r}); m != nil {
		found = true
		st = Status{Source: m.srcComm, Tag: m.tag, Bytes: m.bytes}
	}
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	call.Bytes = st.Bytes
	call.Flag = found
	r.endCall(call)
	if !found {
		r.pollYield()
	}
	return found, st
}

// findUnexpected scans the caller's mailbox for the first match without
// consuming it.
func (w *World) findUnexpected(pr *postedRecv) *message {
	for _, m := range w.mailbox[pr.owner.rank] {
		if pr.matches(m) {
			return m
		}
	}
	return nil
}

// Waitany blocks until at least one of the requests completes and returns
// its index and status, freeing it unless it is persistent. Among
// simultaneously completed requests it picks the one with the earliest
// virtual completion time, deterministically. Zero and stale handles are
// skipped; when every handle is, it returns -1 at once.
func (r *Rank) Waitany(qs []Req) (int, Status) {
	call := r.beginCall(&Call{Func: mpicall.Waitany, Requests: qs})
	w := r.world
	reqs := r.anyReqs[:0]
	active := false
	for _, q := range qs {
		req := r.resolve(q, call.Func)
		reqs = append(reqs, req)
		active = active || req != nil
	}
	r.anyReqs = reqs
	idx := -1
	if active {
		w.waitCond(r, waitDesc{kind: waitAny, reqs: reqs})
	}
	best := math.Inf(1)
	for i, req := range reqs {
		if req != nil && req.done && req.time < best {
			best = req.time
			idx = i
		}
	}
	var st Status
	if idx >= 0 {
		req := reqs[idx]
		r.clock.AdvanceTo(vtime.Time(req.time))
		r.clock.Advance(w.cfg.Impl.CallOverhead())
		st = req.st
		call.CompletedIndex = idx
		call.Request = qs[idx]
	}
	call.Bytes = st.Bytes
	r.endCall(call)
	if idx >= 0 {
		r.freeCompleted(qs[idx])
	}
	return idx, st
}

// Testall reports whether every request has completed; when true the clock
// absorbs all completion times (like MPI_Testall with flag=true) and the
// non-persistent requests are freed. Zero and stale handles count as
// complete.
func (r *Rank) Testall(qs []Req) bool {
	call := r.beginCall(&Call{Func: mpicall.Testall, Requests: qs})
	w := r.world
	for _, q := range qs {
		r.resolve(q, call.Func) // a foreign handle is an error even when unread
	}
	all := true
	for _, q := range qs {
		if req := q.live(); req != nil && !req.done {
			all = false
			break
		}
	}
	r.clock.Advance(w.cfg.Impl.CallOverhead())
	if all {
		for _, q := range qs {
			if req := q.live(); req != nil {
				r.clock.AdvanceTo(vtime.Time(req.time))
			}
		}
	}
	call.Flag = all
	r.endCall(call)
	if !all {
		r.pollYield()
		return false
	}
	for _, q := range qs {
		r.freeCompleted(q)
	}
	return true
}

// Scan performs an inclusive prefix reduction over the communicator.
func (r *Rank) Scan(c *Comm, bytes int, op ReduceOp) {
	r.collective(&Call{Func: mpicall.Scan, Comm: c, Bytes: bytes, Op: op}, netmodel.Scan, bytes)
}

// Exscan performs an exclusive prefix reduction over the communicator.
func (r *Rank) Exscan(c *Comm, bytes int, op ReduceOp) {
	r.collective(&Call{Func: mpicall.Exscan, Comm: c, Bytes: bytes, Op: op}, netmodel.Scan, bytes)
}

// ReduceScatter reduces and scatters equal blocks; bytes is the per-rank
// block size.
func (r *Rank) ReduceScatter(c *Comm, bytes int, op ReduceOp) {
	r.collective(&Call{Func: mpicall.ReduceScatter, Comm: c, Bytes: bytes, Op: op}, netmodel.ReduceScatter, bytes)
}

// --- Cartesian topology helpers ---------------------------------------

// Cart is a Cartesian process topology over a communicator, the structure
// MPI_Cart_create provides. It is computed deterministically from the
// communicator, so every rank derives the same layout without exchange.
type Cart struct {
	Comm    *Comm
	Dims    []int
	Periods []bool
}

// DimsCreate factors nnodes into ndims balanced dimensions, largest first
// (the MPI_Dims_create contract). Non-positive arguments are an
// MPI_ERR_DIMS error.
func DimsCreate(nnodes, ndims int) ([]int, error) {
	if nnodes <= 0 || ndims <= 0 {
		return nil, mpiErrorf(ErrDims, -1, "MPI_Dims_create",
			"nnodes %d and ndims %d must be positive", nnodes, ndims)
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Factorize, then assign factors in decreasing order to the currently
	// smallest dimension — the classic balancing heuristic.
	var factors []int
	n := nnodes
	for f := 2; n > 1; {
		if n%f == 0 {
			factors = append(factors, f)
			n /= f
		} else {
			f++
		}
	}
	for i := len(factors) - 1; i >= 0; i-- {
		small := 0
		for j := 1; j < ndims; j++ {
			if dims[j] < dims[small] {
				small = j
			}
		}
		dims[small] *= factors[i]
	}
	// Largest first.
	for i := 0; i < ndims; i++ {
		for j := i + 1; j < ndims; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims, nil
}

// CartCreate builds a Cartesian view of the communicator. The product of
// dims must equal the communicator size.
func CartCreate(c *Comm, dims []int, periodic []bool) (*Cart, error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != c.Size() {
		return nil, fmt.Errorf("mpi: cart dims %v do not cover comm size %d", dims, c.Size())
	}
	per := make([]bool, len(dims))
	copy(per, periodic)
	return &Cart{Comm: c, Dims: append([]int(nil), dims...), Periods: per}, nil
}

// Coords translates a comm rank to Cartesian coordinates (row-major, like
// MPI).
func (ct *Cart) Coords(rank int) []int {
	coords := make([]int, len(ct.Dims))
	for i := len(ct.Dims) - 1; i >= 0; i-- {
		coords[i] = rank % ct.Dims[i]
		rank /= ct.Dims[i]
	}
	return coords
}

// RankOf translates coordinates to a comm rank, honouring periodicity;
// out-of-range coordinates on non-periodic dimensions yield ProcNull.
func (ct *Cart) RankOf(coords []int) int {
	rank := 0
	for i, d := range ct.Dims {
		c := coords[i]
		if c < 0 || c >= d {
			if !ct.Periods[i] {
				return ProcNull
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Shift returns the (source, dest) ranks displaced along a dimension, the
// MPI_Cart_shift contract.
func (ct *Cart) Shift(rank, dim, disp int) (src, dst int) {
	coords := ct.Coords(rank)
	c := append([]int(nil), coords...)
	c[dim] = coords[dim] + disp
	dst = ct.RankOf(c)
	c[dim] = coords[dim] - disp
	src = ct.RankOf(c)
	return src, dst
}
