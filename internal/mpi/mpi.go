// Package mpi is an in-process simulated MPI runtime: the substrate that
// replaces real MPI clusters in this reproduction. Ranks run as goroutines
// and communicate through a message router with true MPI matching semantics
// (communicator + source + tag, FIFO per channel, wildcards, eager vs
// rendezvous protocols, non-blocking requests, collectives). Time is
// virtual: each rank owns a vtime.Clock advanced by analytic cost models
// (package netmodel for communication, package perfmodel for computation),
// and causality flows across ranks through message timestamps. A PMPI-style
// Interceptor hook observes every call with full parameters, which is what
// the tracing layer (package trace) builds on — mirroring how the paper's
// tool interposes on real MPI via mpiP.
package mpi

import "fmt"

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
	index map[int]int
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

// RankOf translates a world rank to a communicator rank, or -1.
func (c *Comm) RankOf(world int) int {
	if r, ok := c.index[world]; ok {
		return r
	}
	return -1
}

// Request kinds.
const (
	reqSend = iota
	reqRecv
)

// Request is a handle for a pending non-blocking operation.
type Request struct {
	id    int // per-rank dense id, deterministic
	kind  int
	owner int // world rank that created it
	done  bool
	time  float64 // virtual completion time (vtime.Time), valid when done
	st    Status  // resolved status for receives
	nul   bool    // request on ProcNull, completes immediately

	// Diagnostic coordinates for deadlock reports: the operation that
	// created the request, its comm-rank partner (NoPeer for
	// collectives), tag, and communicator id.
	op     string
	peer   int
	tag    int
	commID int

	// persistent holds the bound parameters of a persistent request
	// (MPI_Send_init family); nil for ordinary requests.
	persistent *persistentArgs

	// Message-edge coordinates for the observability layer (package obs):
	// the sender's world rank and the channel sequence number (1-based;
	// 0 = none) of the message this receive request matched, written
	// under World.mu by completeMatch. Persistent receives keep the most
	// recent match — readers dedup by sequence number.
	matchedSrc int
	matchedSeq int
}

// Persistent reports whether the request is a persistent-communication
// handle (created by SendInit/RecvInit).
func (r *Request) Persistent() bool { return r.persistent != nil }

// ID reports the per-rank dense request id.
func (r *Request) ID() int { return r.id }

// Done reports whether the request has completed. It is only meaningful from
// the owning rank's goroutine.
func (r *Request) Done() bool { return r.done }

// MatchedMessage reports the message a completed receive request matched:
// the sender's world rank and the runtime-assigned per-(src,dst) channel
// sequence number. ok is false for send requests and receives that have
// not matched. Like Done, it is only meaningful from the owning rank's
// goroutine once the request has completed; persistent receives report
// their most recent match.
func (r *Request) MatchedMessage() (srcWorld, seq int, ok bool) {
	if r == nil || r.matchedSeq == 0 {
		return 0, 0, false
	}
	return r.matchedSrc, r.matchedSeq - 1, true
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
