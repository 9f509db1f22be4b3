package mpi

import "testing"

// allocsPerCall runs a Sendrecv ring plus an Allreduce per iteration on a
// world of the given size and reports heap allocations per MPI call,
// world set-up included.
func allocsPerCall(size, iters int) float64 {
	app := func(r *Rank) {
		c := r.World()
		next, prev := (r.Rank()+1)%r.Size(), (r.Rank()+r.Size()-1)%r.Size()
		for it := 0; it < iters; it++ {
			r.Sendrecv(c, next, 0, 1024, prev, 0)
			r.Allreduce(c, 8, OpSum)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewWorld(Config{Size: size}).Run(app); err != nil {
			panic(err)
		}
	})
	return allocs / float64(size*iters*2)
}

// maxAllocsPerCall bounds a Sendrecv or Allreduce call's allocations, world
// set-up included. The call path itself allocates nothing: the wait is a
// per-rank descriptor, the call record is the rank's reused Call, and the
// requests a blocking call makes for itself come from a per-rank free
// list. What remains is the world, one slot per collective instance and
// queue growth (0.10 per call at 8 ranks); one closure pair per blocking
// wait would put it above 1.
const maxAllocsPerCall = 0.5

// TestAllocsPerCallFlatInRanks pins that a blocking call costs the same
// allocations at any world size, and at most maxAllocsPerCall. A detector
// that builds every blocked rank's report on each block allocates O(P)
// per call.
func TestAllocsPerCallFlatInRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	small, large := allocsPerCall(8, 200), allocsPerCall(64, 200)
	t.Logf("allocs per call: %.2f at 8 ranks, %.2f at 64 ranks", small, large)
	if large > 1.1*small {
		t.Errorf("allocs per call grow with ranks: %.2f at 64 ranks > 1.1 × %.2f at 8", large, small)
	}
	if small > maxAllocsPerCall || large > maxAllocsPerCall {
		t.Errorf("allocs per call %.2f at 8 ranks, %.2f at 64, above %.1f", small, large, maxAllocsPerCall)
	}
}
