package mpi

import (
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

func TestIbarrierOverlapsComputation(t *testing.T) {
	// The point of a non-blocking barrier: computation issued after
	// Ibarrier proceeds while the barrier is pending, so the total time
	// is less than compute + (serialized) barrier wait.
	const P = 4
	nonblocking := func() vtime.Duration {
		w := newTestWorld(P)
		res, err := w.Run(func(r *Rank) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(perfmodel.Kernel{IntOps: 2e9}) // straggler
			}
			req := r.Ibarrier(c)
			r.Compute(perfmodel.Kernel{IntOps: 1e9}) // overlapped work
			r.Wait(req)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}()
	blocking := func() vtime.Duration {
		w := newTestWorld(P)
		res, err := w.Run(func(r *Rank) {
			c := r.World()
			if r.Rank() == 0 {
				r.Compute(perfmodel.Kernel{IntOps: 2e9})
			}
			r.Barrier(c)
			r.Compute(perfmodel.Kernel{IntOps: 1e9})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}()
	if nonblocking >= blocking {
		t.Errorf("overlapped Ibarrier (%v) should beat blocking barrier (%v)", nonblocking, blocking)
	}
}

func TestIbcastIallreduce(t *testing.T) {
	w := newTestWorld(6)
	res, err := w.Run(func(r *Rank) {
		c := r.World()
		rb := r.Ibcast(c, 0, 4096)
		ra := r.Iallreduce(c, 64, OpSum)
		r.Compute(perfmodel.Kernel{IntOps: 1e7})
		r.Waitall([]Req{rb, ra})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ranks {
		if res.Ranks[i].Calls != 3 {
			t.Errorf("rank %d made %d calls, want 3", i, res.Ranks[i].Calls)
		}
	}
}

func TestNonblockingCollectiveOrdering(t *testing.T) {
	// Blocking and non-blocking collectives on one communicator share the
	// sequencer; interleaving them in the same order on all ranks works.
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		r1 := r.Ibarrier(c)
		r.Allreduce(c, 8, OpSum)
		r2 := r.Ibcast(c, 0, 128)
		r.Wait(r1)
		r.Barrier(c)
		r.Wait(r2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIcollCompletionTime(t *testing.T) {
	// The request completes no earlier than the last rank's arrival.
	w := newTestWorld(2)
	var straggler, done vtime.Time
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 1 {
			r.Compute(perfmodel.Kernel{IntOps: 3e9})
			straggler = r.Now()
		}
		req := r.Ibarrier(c)
		st := r.Wait(req)
		_ = st
		if r.Rank() == 0 {
			done = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < straggler {
		t.Errorf("rank 0 finished the barrier at %v before the straggler arrived at %v", done, straggler)
	}
}
