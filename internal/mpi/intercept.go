package mpi

import (
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// Call carries the full parameter set of one MPI call, the analogue of what
// a PMPI wrapper sees. Fields are populated per function; unused fields stay
// at their zero values.
type Call struct {
	Func  mpicall.Func
	Start vtime.Time
	End   vtime.Time

	Comm    *Comm
	NewComm *Comm // result of Comm_split / Comm_dup

	Dest   int // destination comm rank for sends
	Source int // requested source (may be AnySource) for receives
	Tag    int
	Bytes  int

	// Sendrecv's receive half.
	RecvTag   int
	RecvBytes int

	// Resolved source for receives (differs from Source with AnySource).
	SourceResolved int

	Root   int
	Op     ReduceOp
	Counts []int // per-rank counts for v-variants

	Color, Key int // Comm_split arguments

	Request  Req
	Requests []Req // Waitall / Waitany / Testall

	// MPI-IO fields.
	File     *File
	FileName string
	Offset   int

	// CompletedIndex is the index Waitany resolved to.
	CompletedIndex int

	// Flag is the boolean outcome of Test/Testall/Iprobe, recorded by the
	// runtime so interceptors need not touch live request state.
	Flag bool

	// Message-edge coordinates for the observability layer (package obs).
	// SentSeq/SentDst/SentBytes identify the point-to-point message this
	// call posted: the runtime's per-(src,dst) channel sequence number
	// (1-based; 0 = no message), the destination world rank, and the
	// message's size (Call.Bytes is the call argument, which persistent
	// MPI_Start does not carry). RecvSeq/RecvSrcWorld identify the message
	// a blocking receive completed. Wait-family calls expose completions
	// through Req.MatchedMessage instead.
	SentSeq, SentDst, SentBytes int
	RecvSeq, RecvSrcWorld       int
}

// Interceptor is the PMPI hook: it observes every MPI call on every rank and
// every computation region between calls. Methods are invoked on the calling
// rank's coroutine, so implementations may charge tracing overhead through
// Rank.AddOverhead and keep per-rank state without locking (indexed by
// r.Rank()). A world runs one rank at a time, so its callbacks never
// overlap; an interceptor shared by several worlds still needs its own
// locking.
//
// Each rank reuses one Call for all its calls, so the *Call is valid only
// from BeforeCall to the return of AfterCall: an implementation must not
// keep the pointer past AfterCall, and copies whatever it needs later.
// Communicators the call refers to stay valid as usual. A request the call
// completes is freed only after AfterCall returns, so AfterCall can still
// read it through its handle; an interceptor that keeps a handle past
// that keeps a stale one, whose ID stays valid.
type Interceptor interface {
	// BeforeCall fires on call entry, before any cost is charged.
	BeforeCall(r *Rank, call *Call)
	// AfterCall fires on call exit with Start/End populated.
	AfterCall(r *Rank, call *Call)
	// OnCompute fires after each computation region with its measured
	// counters. A zero kernel with zero counters reports an Elapse
	// (untimed sleep) region.
	OnCompute(r *Rank, k perfmodel.Kernel, c perfmodel.Counters, start, end vtime.Time)
}

// NopInterceptor is an Interceptor that does nothing; embed it to implement
// only the hooks you need.
type NopInterceptor struct{}

// BeforeCall implements Interceptor.
func (NopInterceptor) BeforeCall(*Rank, *Call) {}

// AfterCall implements Interceptor.
func (NopInterceptor) AfterCall(*Rank, *Call) {}

// OnCompute implements Interceptor.
func (NopInterceptor) OnCompute(*Rank, perfmodel.Kernel, perfmodel.Counters, vtime.Time, vtime.Time) {
}
