package proxy

import (
	"fmt"

	"siesta/internal/mpicall"
)

// DivergenceError reports that a replayed trace diverged from what the
// recorded program structure promises: a record references a handle the
// replay never created, names a function the runtime does not implement, or
// otherwise cannot be executed faithfully. It signals a bug in the
// trace/merge/codegen pipeline (or a corrupted trace), not in the replayed
// application, so the replayer surfaces it as a structured error instead of
// crashing the process.
type DivergenceError struct {
	Rank   int    // rank whose replay diverged
	Func   string // MPI function of the offending record ("" if structural)
	Reason string
}

func (e *DivergenceError) Error() string {
	if e.Func == "" {
		return fmt.Sprintf("proxy: replay diverged on rank %d: %s", e.Rank, e.Reason)
	}
	return fmt.Sprintf("proxy: replay diverged on rank %d in %s: %s", e.Rank, e.Func, e.Reason)
}

// divergef builds a DivergenceError for one record.
func divergef(rank int, fn mpicall.Func, format string, args ...any) *DivergenceError {
	return &DivergenceError{Rank: rank, Func: fn.String(), Reason: fmt.Sprintf(format, args...)}
}
