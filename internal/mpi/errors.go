package mpi

import (
	"errors"
	"fmt"
	"strings"

	"siesta/internal/mpicall"
)

// ErrClass mirrors the MPI error classes the simulated runtime can raise.
type ErrClass int

// Error classes, named after their MPI counterparts.
const (
	ErrOther      ErrClass = iota // MPI_ERR_OTHER
	ErrArg                        // MPI_ERR_ARG: invalid argument
	ErrCount                      // MPI_ERR_COUNT: invalid count vector
	ErrRank                       // MPI_ERR_RANK: invalid rank
	ErrRequest                    // MPI_ERR_REQUEST: invalid request handle
	ErrComm                       // MPI_ERR_COMM: invalid communicator use
	ErrFile                       // MPI_ERR_FILE: invalid file handle
	ErrDims                       // MPI_ERR_DIMS: invalid topology dimensions
	ErrProcFailed                 // MPIX_ERR_PROC_FAILED: a process died (ULFM)
)

var errClassNames = map[ErrClass]string{
	ErrOther:      "MPI_ERR_OTHER",
	ErrArg:        "MPI_ERR_ARG",
	ErrCount:      "MPI_ERR_COUNT",
	ErrRank:       "MPI_ERR_RANK",
	ErrRequest:    "MPI_ERR_REQUEST",
	ErrComm:       "MPI_ERR_COMM",
	ErrFile:       "MPI_ERR_FILE",
	ErrDims:       "MPI_ERR_DIMS",
	ErrProcFailed: "MPIX_ERR_PROC_FAILED",
}

func (c ErrClass) String() string {
	if s, ok := errClassNames[c]; ok {
		return s
	}
	return fmt.Sprintf("ErrClass(%d)", int(c))
}

// MPIError is a structured runtime error with an MPI-style error class,
// the analogue of a nonzero MPI return code under MPI_ERRORS_RETURN. API
// misuse that previously panicked the whole process now surfaces as an
// MPIError flowing through World.Run's error return.
type MPIError struct {
	Class ErrClass
	Rank  int    // world rank that raised it; -1 when not rank-specific
	Op    string // the MPI call, e.g. "MPI_Alltoallv"; may be empty
	Msg   string
}

func (e *MPIError) Error() string {
	var b strings.Builder
	b.WriteString("mpi: ")
	b.WriteString(e.Class.String())
	if e.Op != "" {
		fmt.Fprintf(&b, " in %s", e.Op)
	}
	if e.Rank >= 0 {
		fmt.Fprintf(&b, " on rank %d", e.Rank)
	}
	if e.Msg != "" {
		b.WriteString(": ")
		b.WriteString(e.Msg)
	}
	return b.String()
}

// mpiErrorf builds an MPIError with a formatted message.
func mpiErrorf(class ErrClass, rank int, op, format string, args ...any) *MPIError {
	return &MPIError{Class: class, Rank: rank, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// NoPeer marks a pending operation with no point-to-point partner
// (collectives, waits on send requests to ProcNull, ...).
const NoPeer = -3

// PendingOp describes what one blocked rank is waiting for, in MPI terms:
// the call it is inside, the partner and tag it is matching (for
// point-to-point) and the communicator involved.
type PendingOp struct {
	Rank int
	Func string // MPI call name, e.g. "MPI_Recv"
	Comm int    // communicator id; -1 when no communicator applies
	Peer int    // comm rank of the partner; AnySource, ProcNull or NoPeer
	Tag  int    // tag being matched; AnyTag when wildcarded
	// Detail is a human-readable qualifier ("collective seq 4, 3/8
	// arrived", "request #2 (send)").
	Detail string
}

func (p PendingOp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rank %d: %s", p.Rank, p.Func)
	switch p.Peer {
	case NoPeer:
	case AnySource:
		b.WriteString(" peer=any")
	case ProcNull:
		b.WriteString(" peer=null")
	default:
		fmt.Fprintf(&b, " peer=%d", p.Peer)
	}
	if p.Peer != NoPeer {
		if p.Tag == AnyTag {
			b.WriteString(" tag=any")
		} else {
			fmt.Fprintf(&b, " tag=%d", p.Tag)
		}
	}
	if p.Comm >= 0 {
		fmt.Fprintf(&b, " comm=%d", p.Comm)
	}
	if p.Detail != "" {
		fmt.Fprintf(&b, " (%s)", p.Detail)
	}
	return b.String()
}

// DeadlockError reports that the run cannot make progress: every live
// rank is blocked with no enabled transition, or the virtual-time budget
// ran out. Blocked lists each stuck rank's pending operation in rank
// order; Crashed lists ranks removed by silent fault-injected crashes.
type DeadlockError struct {
	Reason  string
	Blocked []PendingOp
	Crashed []int
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: deadlock: %s", e.Reason)
	for _, op := range e.Blocked {
		b.WriteString("\n  ")
		b.WriteString(op.String())
	}
	if len(e.Crashed) > 0 {
		fmt.Fprintf(&b, "\n  crashed ranks: %v", e.Crashed)
	}
	return b.String()
}

// StallError reports that World.Run's run queue drained while ranks were
// unfinished and one of them was parked on a wait that could already end:
// some wake site failed to queue it. It marks a runtime bug, never an
// application error. Ranks lists the unfinished world ranks in
// ascending order; Run stops their coroutines before returning.
type StallError struct {
	Ranks []int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("mpi: scheduler stalled: run queue drained with ranks %v unfinished", e.Ranks)
}

// errAborted is the panic sentinel a rank throws to unwind after the run
// has already failed; World.Run's recovery absorbs it silently.
var errAborted = errors.New("mpi: run aborted")

// ErrCanceled is the sentinel every context-cancellation failure matches:
// errors.Is(err, ErrCanceled) holds for any run torn down because its
// Config.Ctx was canceled or passed its deadline, however deeply the
// pipeline wrapped it.
var ErrCanceled = errors.New("mpi: run canceled")

// CancelError reports that a run was stopped by its configured context
// rather than by the application: the caller canceled the job or its
// wall-clock deadline expired. Cause preserves the context's cause
// (context.Canceled, context.DeadlineExceeded, or a custom cause), so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.DeadlineExceeded)
// see through it.
type CancelError struct {
	Cause error
}

func (e *CancelError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("mpi: run canceled: %v", e.Cause)
	}
	return "mpi: run canceled"
}

func (e *CancelError) Unwrap() error { return e.Cause }

// Is makes every CancelError match the ErrCanceled sentinel.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// crashPanic is the panic payload of a fault-injected rank crash.
type crashPanic struct {
	op     mpicall.Func // the MPI call the rank died entering
	call   int          // the rank's call count at death
	silent bool
}
