package mpi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// TestRunCancelRacesCompletion cancels the context from another goroutine
// while the ranks are finishing. Whether Run's polls see the cancel before,
// during or after the barrier, any error must be a *CancelError. Under
// -race it also shows that nothing but the context's channel crosses
// goroutines.
func TestRunCancelRacesCompletion(t *testing.T) {
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := NewWorld(Config{Size: 2, Ctx: ctx})
		go cancel()
		_, err := w.Run(func(r *Rank) {
			r.Barrier(r.World())
		})
		cancel()
		if err != nil {
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("iteration %d: want *CancelError, got %v", i, err)
			}
		}
	}
}

// TestCancelFromAnotherGoroutineReachesBusyRank cancels a run from another
// goroutine while rank 0 computes in a loop that makes no MPI call and
// never yields, and ranks 1-3 sit parked in Recv from it. Run resumes no
// rank after the cancel, so only the running rank's poll at each
// computation region can see it: Run must return a *CancelError and leave
// no goroutine behind. The cancel is sent once rank 0 has computed its
// first region and lands within milliseconds; the virtual deadline is a
// backstop about 1 s of wall time away (10 s under -race), so without that
// poll the run ends in a DeadlockError instead of hanging.
func TestCancelFromAnotherGoroutineReachesBusyRank(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	busy := make(chan struct{})
	go func() {
		select {
		case <-busy:
		case <-ctx.Done():
		}
		cancel()
	}()
	w := NewWorld(Config{Size: 4, Ctx: ctx, Deadline: vtime.Duration(2000)})
	_, err := w.Run(func(r *Rank) {
		if r.Rank() != 0 {
			r.Recv(r.World(), 0, 0)
			return
		}
		// Nothing was sent, so the probe fails and yields: ranks 1-3 run
		// and park in Recv before rank 0 starts its loop.
		r.Iprobe(r.World(), AnySource, 0)
		for regions := 1; ; regions++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e6})
			if regions == 1 {
				close(busy)
			}
		}
	})
	cancel()
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Run returned %v, want *CancelError", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}
