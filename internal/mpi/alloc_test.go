package mpi

import "testing"

// allocsPerCall runs app on a world of the given size and reports heap
// allocations per MPI call, world set-up included.
func allocsPerCall(size int, app func(*Rank)) float64 {
	run := func() *RunResult {
		res, err := NewWorld(Config{Size: size}).Run(app)
		if err != nil {
			panic(err)
		}
		return res
	}
	calls := 0
	for _, rr := range run().Ranks {
		calls += rr.Calls
	}
	return testing.AllocsPerRun(3, func() { run() }) / float64(calls)
}

// ringApp runs a Sendrecv ring plus an Allreduce per iteration.
func ringApp(iters int) func(*Rank) {
	return func(r *Rank) {
		c := r.World()
		next, prev := (r.Rank()+1)%r.Size(), (r.Rank()+r.Size()-1)%r.Size()
		for it := 0; it < iters; it++ {
			r.Sendrecv(c, next, 0, 1024, prev, 0)
			r.Allreduce(c, 8, OpSum)
		}
	}
}

// maxAllocsPerCall bounds a blocking call's allocations, world set-up
// included. The call path itself allocates nothing: the wait is a
// per-rank descriptor, the call record is the rank's reused Call, the
// requests a blocking call makes for itself come from a per-rank free
// list, and a probe's template from the world's. What remains is the world, one slot per collective instance and
// queue growth (0.10 per call at 8 ranks); one closure pair per blocking
// wait would put it above 1.
const maxAllocsPerCall = 0.5

// TestAllocsPerCallFlatInRanks pins that a blocking call costs the same
// allocations at any world size, and at most maxAllocsPerCall. Blocking
// that scanned or reported every parked rank each time would allocate
// O(P) per call.
func TestAllocsPerCallFlatInRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	small, large := allocsPerCall(8, ringApp(200)), allocsPerCall(64, ringApp(200))
	t.Logf("allocs per call: %.2f at 8 ranks, %.2f at 64 ranks", small, large)
	if large > 1.1*small {
		t.Errorf("allocs per call grow with ranks: %.2f at 64 ranks > 1.1 × %.2f at 8", large, small)
	}
	if small > maxAllocsPerCall || large > maxAllocsPerCall {
		t.Errorf("allocs per call %.2f at 8 ranks, %.2f at 64, above %.1f", small, large, maxAllocsPerCall)
	}
}

// TestAllocsPerProbeCall pins that a blocking probe's template comes from
// the world's free list: rank 1 probes each of rank 0's 200 sends before
// receiving it, and the run stays within maxAllocsPerCall. A template
// allocated per Probe puts it above.
func TestAllocsPerProbeCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	allocs := allocsPerCall(2, func(r *Rank) {
		c := r.World()
		for i := 0; i < 200; i++ {
			if r.Rank() == 0 {
				r.Send(c, 1, 0, 64)
			} else {
				r.Probe(c, 0, 0)
				r.Recv(c, 0, 0)
			}
		}
	})
	t.Logf("allocs per call: %.2f", allocs)
	if allocs > maxAllocsPerCall {
		t.Errorf("allocs per call %.2f, above %.1f", allocs, maxAllocsPerCall)
	}
}
