package mpi

import (
	"context"
	"errors"
	"testing"
)

// TestRunCancelRacesCompletion drives the window where the context fires
// while the ranks are finishing: Run's post-wait bookkeeping reads w.failed
// without holding w.mu, which is only safe because the context watcher is
// joined first. Run under -race this is a regression test for that join.
func TestRunCancelRacesCompletion(t *testing.T) {
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := NewWorld(Config{Size: 2, Ctx: ctx})
		go cancel()
		_, err := w.Run(func(r *Rank) {
			r.Barrier(r.World())
		})
		cancel()
		// A context canceled before Run starts the ranks leaves them all
		// in rsRunning; either way the count must match the states.
		running := 0
		for _, r := range w.ranks {
			if r.state == rsRunning {
				running++
			}
		}
		if w.running != running {
			t.Fatalf("iteration %d: running count %d, %d ranks in rsRunning", i, w.running, running)
		}
		if err != nil {
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("iteration %d: want *CancelError, got %v", i, err)
			}
		}
	}
}
