package mpi

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestRunQueueDrainStall completes a parked rank's wait behind the
// scheduler's back, so no wake site queues it: the run queue drains with a
// parked rank that could proceed, and Run must report the stall as a
// *StallError, not a deadlock, and unwind the parked coroutine rather than
// return success or leak it.
func TestRunQueueDrainStall(t *testing.T) {
	before := runtime.NumGoroutine()
	w := newTestWorld(2)
	req := &request{owner: 0, peer: NoPeer, commID: -1}
	unwound := false
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			defer func() { unwound = true }()
			w.waitCond(r, waitDesc{kind: waitRequest, req: req})
			return
		}
		req.done = true // no wake: rank 0 stays parked
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run returned %v, want *StallError", err)
	}
	if !reflect.DeepEqual(se.Ranks, []int{0}) {
		t.Errorf("stalled ranks %v, want [0]", se.Ranks)
	}
	if !unwound {
		t.Error("the stalled rank's coroutine was not unwound")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}
