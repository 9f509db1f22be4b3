// Package mpi is an in-process simulated MPI runtime: the substrate that
// replaces real MPI clusters in this reproduction. Ranks run as coroutines
// on the goroutine that calls World.Run, one at a time, and communicate
// through a message router with true MPI matching semantics
// (communicator + source + tag, FIFO per channel, wildcards, eager vs
// rendezvous protocols, non-blocking requests, collectives). Time is
// virtual: each rank owns a vtime.Clock advanced by analytic cost models
// (package netmodel for communication, package perfmodel for computation),
// and causality flows across ranks through message timestamps. A PMPI-style
// Interceptor hook observes every call with full parameters, which is what
// the tracing layer (package trace) builds on — mirroring how the paper's
// tool interposes on real MPI via mpiP.
package mpi

import (
	"fmt"

	"siesta/internal/mpicall"
)

// Wildcards and special values mirroring the MPI standard.
const (
	AnySource = -1 // matches any sending rank (MPI_ANY_SOURCE)
	AnyTag    = -1 // matches any message tag (MPI_ANY_TAG)
	ProcNull  = -2 // send/recv to ProcNull is a no-op (MPI_PROC_NULL)
)

// Status describes a completed receive.
type Status struct {
	Source int // rank the message came from (in the receive's communicator)
	Tag    int
	Bytes  int
}

// Comm is a communicator: an ordered group of world ranks with a dense id.
// Comm values are created collectively and immutable afterwards, so they are
// shared read-only across ranks.
type Comm struct {
	id    int
	ranks []int // comm rank -> world rank
	// index is the inverse of ranks: world rank -> comm rank, -1 for a
	// non-member. A slice over the whole world (8 B × world size per
	// communicator) makes RankOf, run once per recorded event, message
	// and replayed call, an index instead of a map probe.
	index []int
	inter bool // true if any pair of members crosses node boundaries
}

// ID reports the communicator's dense id (world is 0). The ids are assigned
// deterministically in collective creation order, which is what lets the
// trace layer's communicator pool reproduce them exactly.
func (c *Comm) ID() int { return c.id }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// RankOf translates a world rank to a communicator rank, or -1 for a
// rank outside the communicator or the world. It is one slice index.
func (c *Comm) RankOf(world int) int {
	if world < 0 || world >= len(c.index) {
		return -1
	}
	return c.index[world]
}

// Request kinds.
const (
	reqSend = iota
	reqRecv
)

// request is the runtime's state for one pending operation. Callers hold
// it through a Req handle; the router, the wait descriptors and the
// collective slots hold it directly. Each request lives in a slot of its
// rank's slab (Rank.reqs) and is reused by the slot's next owner.
type request struct {
	id    int // per-rank dense id, deterministic
	kind  int
	owner int // world rank that created it
	done  bool
	time  float64 // virtual completion time (vtime.Time), valid when done
	st    Status  // resolved status for receives
	nul   bool    // request on ProcNull, completes immediately

	// slot is the request's index in its rank's slab, and gen the slot's
	// generation: freeing the request bumps gen, which turns every handle
	// made before into a stale one.
	slot int32
	gen  uint32

	// Diagnostic coordinates for deadlock reports: the operation that
	// created the request, its comm-rank partner (NoPeer for
	// collectives), tag, and communicator id.
	op     mpicall.Func
	peer   int
	tag    int
	commID int

	// persistent holds the bound parameters of a persistent request
	// (MPI_Send_init family); nil for ordinary requests.
	persistent *persistentArgs

	// Message-edge coordinates for the observability layer (package obs):
	// the sender's world rank and the channel sequence number (1-based;
	// 0 = none) of the message this receive request matched, written by
	// completeMatch. Persistent receives keep the most recent match —
	// readers dedup by sequence number.
	matchedSrc int
	matchedSeq int
}

// Req is a handle to a non-blocking or persistent request: its rank, its
// slot in the rank's request slab, the slot's generation when the request
// was made, and the request's per-rank dense id. The zero Req is
// MPI_REQUEST_NULL.
//
// MPI's lifetime rule applies: a non-persistent request is freed when the
// Wait or Test that completed it returns (after the interceptor's
// AfterCall), and a persistent one at RequestFree. Its handle then goes
// stale, and every call treats a stale handle as MPI_REQUEST_NULL: a wait
// on it is a no-op and Test reports true. The slot's next owner gets a new
// generation, so a stale handle can neither observe nor complete it.
type Req struct {
	rank *Rank
	slot int32
	gen  uint32
	id   int
}

// IsZero reports whether q is the zero Req, the handle of a call that
// names no request. A stale handle is not zero, though calls treat both
// alike.
func (q Req) IsZero() bool { return q.rank == nil }

// ID reports the per-rank dense request id. A stale handle keeps its id,
// so an interceptor can rename a request it saw complete earlier.
func (q Req) ID() int { return q.id }

// live returns the request q names, or nil when q is zero or stale.
func (q Req) live() *request {
	if q.rank == nil || int(q.slot) >= len(q.rank.reqs) {
		return nil
	}
	if req := q.rank.reqs[q.slot]; req.gen == q.gen {
		return req
	}
	return nil
}

// Persistent reports whether q is a live persistent-communication handle
// (created by SendInit/RecvInit and not yet freed).
func (q Req) Persistent() bool {
	req := q.live()
	return req != nil && req.persistent != nil
}

// Done reports whether the request has completed; a zero or stale handle
// has. It is only meaningful from the owning rank's coroutine.
func (q Req) Done() bool {
	req := q.live()
	return req == nil || req.done
}

// MatchedMessage reports the message a completed receive request matched:
// the sender's world rank and the runtime-assigned per-(src,dst) channel
// sequence number. ok is false for send requests, receives that have not
// matched, and zero or stale handles. Like Done, it is only meaningful from
// the owning rank's coroutine; an interceptor reads it in AfterCall, before
// the completing call frees the request. Persistent receives report their
// most recent match.
func (q Req) MatchedMessage() (srcWorld, seq int, ok bool) {
	req := q.live()
	if req == nil || req.matchedSeq == 0 {
		return 0, 0, false
	}
	return req.matchedSrc, req.matchedSeq - 1, true
}

// ReduceOp names a reduction operator; the runtime carries no data so the
// operator is recorded for the trace but does not affect matching.
type ReduceOp string

// Common reduction operators.
const (
	OpSum ReduceOp = "sum"
	OpMax ReduceOp = "max"
	OpMin ReduceOp = "min"
)

func (c *Comm) String() string {
	return fmt.Sprintf("Comm#%d(size=%d)", c.id, len(c.ranks))
}
