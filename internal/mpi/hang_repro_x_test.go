package mpi

import (
	"testing"
	"time"

	"siesta/internal/fault"
	"siesta/internal/netmodel"
	"siesta/internal/platform"
)

// Repro: rank 0 crashes loud before rank 1 enters a fresh collective.
// The slot is created after fail already ran, so nothing ever
// closes slot.done and World.Run hangs.
func TestHangReproCollectiveAfterAbort(t *testing.T) {
	w := NewWorld(Config{
		Platform: platform.A, Impl: netmodel.OpenMPI, Size: 2,
		Faults: &fault.Plan{Crashes: []fault.Crash{{Rank: 0, AtCall: 1}}},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *Rank) {
			if r.Rank() == 1 {
				time.Sleep(200 * time.Millisecond) // let rank 0's crash be recorded first
			}
			r.Barrier(r.World())
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("World.Run hung: rank 1 blocked forever in a collective created after abort")
	}
}
