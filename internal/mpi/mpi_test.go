package mpi

import (
	"errors"
	"sync"
	"testing"

	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/vtime"
)

func newTestWorld(size int) *World {
	return NewWorld(Config{Size: size})
}

func TestRingSendRecv(t *testing.T) {
	w := newTestWorld(4)
	res, err := w.Run(func(r *Rank) {
		c := r.World()
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		if r.Rank() == 0 {
			r.Send(c, next, 7, 128)
			r.Recv(c, prev, 7)
		} else {
			st := r.Recv(c, prev, 7)
			if st.Source != prev || st.Tag != 7 || st.Bytes != 128 {
				panic("bad status")
			}
			r.Send(c, next, 7, 128)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("execution should take virtual time")
	}
}

func TestPayloadDelivery(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.SendBytes(c, 1, 0, []byte("hello, rank 1"))
		} else {
			buf := make([]byte, 13)
			st := r.RecvBytes(c, 0, 0, buf)
			if string(buf) != "hello, rank 1" {
				panic("payload corrupted: " + string(buf))
			}
			if st.Bytes != 13 {
				panic("wrong byte count")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBlocksUntilMatch(t *testing.T) {
	// A message above the eager threshold must synchronize sender and
	// receiver: the sender's completion time reflects the receiver's
	// late arrival.
	w := newTestWorld(2)
	big := netmodel.OpenMPI.EagerThreshold * 4
	var senderDone, recvPost vtime.Time
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.Send(c, 1, 0, big)
			senderDone = r.Now()
		} else {
			r.Compute(perfmodel.Kernel{IntOps: 1e9}) // receiver is late
			recvPost = r.Now()
			r.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone < recvPost {
		t.Errorf("rendezvous sender finished at %v before receiver arrived at %v", senderDone, recvPost)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	w := newTestWorld(2)
	var senderDone, recvPost vtime.Time
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.Send(c, 1, 0, 64) // tiny, eager
			senderDone = r.Now()
		} else {
			r.Compute(perfmodel.Kernel{IntOps: 1e9})
			recvPost = r.Now()
			r.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone >= recvPost {
		t.Errorf("eager sender at %v should not wait for receiver at %v", senderDone, recvPost)
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// The receiver can never finish the receive before the sender's data
	// could have arrived.
	w := newTestWorld(2)
	var sendReady, recvDone vtime.Time
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.Compute(perfmodel.Kernel{IntOps: 5e8})
			r.Send(c, 1, 3, 256)
			sendReady = r.Now()
		} else {
			r.Recv(c, 0, 3)
			recvDone = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvDone < sendReady {
		t.Errorf("receive completed at %v before send was ready at %v", recvDone, sendReady)
	}
}

func TestNonblockingWaitall(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		var reqs []Req
		for peer := 0; peer < r.Size(); peer++ {
			if peer == r.Rank() {
				continue
			}
			reqs = append(reqs, r.Irecv(c, peer, 1))
			reqs = append(reqs, r.Isend(c, peer, 1, 512))
		}
		r.Waitall(reqs)
		for _, q := range reqs {
			if !q.Done() {
				panic("request not done after Waitall")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newTestWorld(3)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		switch r.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := r.Recv(c, AnySource, AnyTag)
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				panic("wildcard receive missed a sender")
			}
		default:
			r.Send(c, 0, 10+r.Rank(), 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPreserved(t *testing.T) {
	// MPI guarantees non-overtaking between a pair for a given tag.
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 1; i <= 5; i++ {
				r.Send(c, 1, 0, i*10)
			}
		} else {
			for i := 1; i <= 5; i++ {
				st := r.Recv(c, 0, 0)
				if st.Bytes != i*10 {
					panic("messages overtook each other")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		st := r.Sendrecv(c, next, 5, 1000, prev, 5)
		if st.Source != prev || st.Bytes != 1000 {
			panic("sendrecv status wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvLargeNoDeadlock(t *testing.T) {
	// Head-to-head rendezvous exchanges must not deadlock via Sendrecv.
	w := newTestWorld(2)
	big := netmodel.OpenMPI.EagerThreshold * 8
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		r.Sendrecv(c, other, 0, big, other, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProcNull(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		r.Send(c, ProcNull, 0, 1<<20)
		st := r.Recv(c, ProcNull, 0)
		if st.Bytes != 0 {
			panic("ProcNull recv should be empty")
		}
		req := r.Isend(c, ProcNull, 0, 64)
		r.Wait(req)
		st = r.Sendrecv(c, ProcNull, 0, 64, ProcNull, 0)
		if st.Bytes != 0 {
			panic("ProcNull sendrecv should be empty")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSynchronize(t *testing.T) {
	w := newTestWorld(8)
	res, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 3 {
			r.Compute(perfmodel.Kernel{IntOps: 2e9}) // straggler
		}
		r.Barrier(c)
		if r.Now() == 0 {
			panic("barrier should advance time")
		}
		r.Bcast(c, 0, 4096)
		r.Allreduce(c, 8, OpSum)
		r.Reduce(c, 0, 64, OpMax)
		r.Gather(c, 0, 128)
		r.Scatter(c, 0, 128)
		r.Allgather(c, 256)
		r.Alltoall(c, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
	// After a barrier behind a straggler, everyone's finish time must be
	// at least the straggler's compute time.
	straggler := res.Ranks[3]
	for _, rr := range res.Ranks {
		if rr.FinishTime < straggler.FinishTime-vtime.Time(0.1*float64(straggler.FinishTime)) {
			t.Errorf("rank %d finished at %v, far before straggler %v", rr.Rank, rr.FinishTime, straggler.FinishTime)
		}
	}
}

func TestAlltoallvCountsValidation(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		if err := r.Alltoallv(r.World(), []int{1}); err != nil { // wrong length
			panic(err) // propagate: the run must fail with the MPIError
		}
	})
	if err == nil {
		t.Fatal("bad counts should abort the run")
	}
	var mpiErr *MPIError
	if !errors.As(err, &mpiErr) || mpiErr.Class != ErrCount {
		t.Fatalf("err = %v, want wrapped MPI_ERR_COUNT", err)
	}
	if mpiErr.Op != "MPI_Alltoallv" {
		t.Errorf("Op = %q", mpiErr.Op)
	}
}

func TestCommSplitDeterministicIDs(t *testing.T) {
	run := func() []int {
		w := newTestWorld(8)
		ids := make([]int, 8)
		_, err := w.Run(func(r *Rank) {
			sub := r.CommSplit(r.World(), r.Rank()%2, r.Rank())
			if sub == nil {
				panic("nil comm")
			}
			if sub.Size() != 4 {
				panic("split size wrong")
			}
			ids[r.Rank()] = sub.ID()
			// Even ranks got color 0 which is assigned the first id.
			r.Barrier(r.World())
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split comm ids nondeterministic at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Color 0 members share one id, color 1 members another, and they differ.
	if a[0] != a[2] || a[1] != a[3] || a[0] == a[1] {
		t.Fatalf("split grouping wrong: %v", a)
	}
}

func TestCommSplitUndefined(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		color := 0
		if r.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := r.CommSplit(r.World(), color, 0)
		if r.Rank() == 3 && sub != nil {
			panic("undefined color should yield no communicator")
		}
		if r.Rank() != 3 && (sub == nil || sub.Size() != 3) {
			panic("defined colors should form a comm of 3")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommDupAndUse(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		dup := r.CommDup(r.World())
		if dup.Size() != 4 || dup.ID() == r.World().ID() {
			panic("dup should be same group, fresh id")
		}
		// Messages in the dup must not match receives on world.
		if r.Rank() == 0 {
			r.Send(dup, 1, 0, 32)
			r.Send(r.World(), 1, 0, 64)
		} else if r.Rank() == 1 {
			st := r.Recv(r.World(), 0, 0)
			if st.Bytes != 64 {
				panic("comm isolation violated")
			}
			st = r.Recv(dup, 0, 0)
			if st.Bytes != 32 {
				panic("dup message lost")
			}
		}
		r.CommFree(dup)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommCollectives(t *testing.T) {
	w := newTestWorld(8)
	_, err := w.Run(func(r *Rank) {
		row := r.CommSplit(r.World(), r.Rank()/4, r.Rank())
		r.Allreduce(row, 64, OpSum)
		r.Barrier(row)
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestNonblocking(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			req := r.Irecv(c, 1, 0)
			done, _ := r.Test(req)
			_ = done // may or may not be done yet; must not block
			if st := r.Wait(req); st.Bytes != 48 {
				panic("Wait resolved the wrong status")
			}
			// Wait freed the request: its handle is MPI_REQUEST_NULL,
			// which tests complete with an empty status.
			done, st := r.Test(req)
			if !done || st != (Status{}) {
				panic("Test after Wait should report a completed null request")
			}
		} else {
			r.Send(c, 0, 0, 48)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagatesAsError(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 2 {
			panic("boom")
		}
		// Other ranks block; the failure must unblock them.
		r.Recv(r.World(), AnySource, 0)
	})
	if err == nil {
		t.Fatal("panic should surface as an error")
	}
}

func TestComputeAccumulatesCounters(t *testing.T) {
	w := newTestWorld(2)
	k := perfmodel.Kernel{IntOps: 1e6, Loads: 5e5, Stores: 2e5, Branches: 1e5}
	res, err := w.Run(func(r *Rank) {
		r.Compute(k)
		r.Compute(k)
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	want := perfmodel.Measure(platform.A, k).Scale(2)
	for i := range res.Ranks {
		got := res.Ranks[i].Compute
		if got[perfmodel.INS] != want[perfmodel.INS] {
			t.Errorf("rank %d INS = %v, want %v", i, got[perfmodel.INS], want[perfmodel.INS])
		}
		if res.Ranks[i].ComputeTime <= 0 {
			t.Errorf("rank %d has no compute time", i)
		}
		if res.Ranks[i].Calls != 1 {
			t.Errorf("rank %d calls = %d, want 1", i, res.Ranks[i].Calls)
		}
	}
	tc := res.TotalCompute()
	if tc[perfmodel.INS] != 2*want[perfmodel.INS] {
		t.Error("TotalCompute wrong")
	}
}

func TestElapseAdvancesWithoutCounters(t *testing.T) {
	w := newTestWorld(1)
	res, err := w.Run(func(r *Rank) {
		r.Elapse(0.25)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime < 0.25 {
		t.Errorf("Elapse(0.25) gave exec time %v", res.ExecTime)
	}
	if res.Ranks[0].Compute != (perfmodel.Counters{}) {
		t.Error("Elapse should not record counters")
	}
}

func TestPlatformCapacityEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribing platform C should panic")
		}
	}()
	NewWorld(Config{Platform: platform.C, Size: platform.C.CoresPerNode + 1})
}

type countingInterceptor struct {
	NopInterceptor
	mu       sync.Mutex
	calls    map[string]int
	computes int
}

func (ci *countingInterceptor) AfterCall(r *Rank, call *Call) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.calls[call.Func.String()]++
	if call.End < call.Start {
		panic("call ends before it starts")
	}
}

func (ci *countingInterceptor) OnCompute(r *Rank, k perfmodel.Kernel, c perfmodel.Counters, start, end vtime.Time) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.computes++
}

func TestInterceptorSeesEverything(t *testing.T) {
	ci := &countingInterceptor{calls: map[string]int{}}
	w := NewWorld(Config{Size: 2, Interceptor: ci})
	_, err := w.Run(func(r *Rank) {
		r.Compute(perfmodel.Kernel{IntOps: 100})
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 64)
		} else {
			r.Recv(r.World(), 0, 0)
		}
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	if ci.calls["MPI_Send"] != 1 || ci.calls["MPI_Recv"] != 1 || ci.calls["MPI_Barrier"] != 2 {
		t.Errorf("interceptor missed calls: %v", ci.calls)
	}
	if ci.computes != 2 {
		t.Errorf("interceptor saw %d computes, want 2", ci.computes)
	}
}

func TestDeterministicExecTime(t *testing.T) {
	run := func() vtime.Duration {
		w := NewWorld(Config{Size: 8, NoiseSigma: 0.01, Seed: 11})
		res, err := w.Run(func(r *Rank) {
			c := r.World()
			for it := 0; it < 5; it++ {
				r.Compute(perfmodel.Kernel{IntOps: 1e7, Loads: 4e6, Stores: 2e6, Branches: 1e6, MissLines: 1e4})
				next := (r.Rank() + 1) % r.Size()
				prev := (r.Rank() - 1 + r.Size()) % r.Size()
				r.Sendrecv(c, next, it, 2048, prev, it)
				r.Allreduce(c, 8, OpSum)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different exec times: %v vs %v", a, b)
	}
}

func TestWaitOnForeignRequestPanics(t *testing.T) {
	w := newTestWorld(2)
	share := make(chan Req, 1)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			req := r.Isend(c, 1, 0, 1<<20)
			share <- req
			r.Wait(req)
		} else {
			foreign := <-share
			r.Wait(foreign) // must panic: requests are rank-local
		}
	})
	if err == nil {
		t.Fatal("waiting on a foreign request should abort")
	}
}

func TestWtime(t *testing.T) {
	w := newTestWorld(1)
	_, err := w.Run(func(r *Rank) {
		t0 := r.Wtime()
		r.Elapse(0.5)
		if r.Wtime()-t0 < 0.5 {
			panic("Wtime did not advance")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
