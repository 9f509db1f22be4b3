package mpi_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"siesta/internal/fault"
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

// pollingApp drives all three non-blocking probes in polling loops: each
// rank polls a rendezvous Isend with Test until its neighbour posts the
// receive, then its own Irecv with Testall, and rank 1 polls Iprobe until
// rank 0's late message arrives. None of the loops can finish unless a
// failed poll lets the other ranks run.
func pollingApp(r *mpi.Rank) {
	c := r.World()
	me, n := r.Rank(), r.Size()
	next, prev := (me+1)%n, (me+n-1)%n
	for it := 0; it < 3; it++ {
		if me%2 == 1 {
			r.Compute(perfmodel.Kernel{IntOps: 2e6, Loads: 1e6})
		}
		rq := r.Irecv(c, prev, it)
		sq := r.Isend(c, next, it, 1<<20)
		for done, _ := r.Test(sq); !done; done, _ = r.Test(sq) {
		}
		for !r.Testall([]mpi.Req{rq}) {
		}
		switch me {
		case 0:
			r.Compute(perfmodel.Kernel{IntOps: 4e6})
			r.Send(c, 1, 99, 64)
		case 1:
			for ok, _ := r.Iprobe(c, mpi.AnySource, 99); !ok; ok, _ = r.Iprobe(c, mpi.AnySource, 99) {
			}
			r.Recv(c, 0, 99)
		}
	}
}

// TestPollingLoopsFinish runs the polling app twice: both runs must finish
// (a virtual-time deadline, 20 times the run's 2.6 ms, turns a spinning
// poll into an error instead of a hang) and agree on every rank's result and on the trace, byte for
// byte, since the number of polls no longer depends on timing.
func TestPollingLoopsFinish(t *testing.T) {
	run := func() (*mpi.RunResult, []byte, map[string]int) {
		rec := trace.NewRecorder(4, trace.Config{})
		res, err := mpi.NewWorld(mpi.Config{Size: 4, Seed: 9, NoiseSigma: 0.01, Interceptor: rec, Deadline: 0.05}).Run(pollingApp)
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace("A", "openmpi")
		return res, tr.Encode(), tr.FuncHistogram()
	}
	res1, enc1, hist := run()
	res2, enc2, _ := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("polling runs disagree:\n%+v\n%+v", res1, res2)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Error("polling runs recorded different traces")
	}
	// Each loop runs once per rank and iteration; more calls than that
	// means some polls failed, so the loops really waited.
	if hist["MPI_Test"] <= 12 || hist["MPI_Iprobe"] <= 3 {
		t.Errorf("polls never failed (%d Test, %d Iprobe): the app did not exercise polling", hist["MPI_Test"], hist["MPI_Iprobe"])
	}
}

// overlapProbe counts interceptor callbacks that start while another is
// still running. Its call counter is deliberately unsynchronized, so the
// race detector also flags callbacks that run concurrently.
type overlapProbe struct {
	inside   atomic.Int32
	overlaps atomic.Int32
	calls    map[int]int
}

func (p *overlapProbe) enter(r *mpi.Rank) {
	if p.inside.Add(1) != 1 {
		p.overlaps.Add(1)
	}
	p.calls[r.Rank()]++
	runtime.Gosched() // widen the window a concurrent callback would hit
	p.inside.Add(-1)
}

func (p *overlapProbe) BeforeCall(r *mpi.Rank, _ *mpi.Call) { p.enter(r) }
func (p *overlapProbe) AfterCall(r *mpi.Rank, _ *mpi.Call)  { p.enter(r) }
func (p *overlapProbe) OnCompute(r *mpi.Rank, _ perfmodel.Kernel, _ perfmodel.Counters, _, _ vtime.Time) {
	p.enter(r)
}

// TestInterceptorCallbacksNeverOverlap: a world runs one rank at a time,
// so on a multi-core scheduler its interceptor still sees one callback in
// flight at a time.
func TestInterceptorCallbacksNeverOverlap(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	p := &overlapProbe{calls: map[int]int{}}
	_, err := mpi.NewWorld(mpi.Config{Size: 8, Seed: 3, Interceptor: p, Deadline: 0.5}).Run(func(r *mpi.Rank) {
		haloApp(4)(r)
		pollingApp(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := p.overlaps.Load(); n != 0 {
		t.Errorf("%d interceptor callbacks overlapped another", n)
	}
	if len(p.calls) != 8 {
		t.Errorf("callbacks seen from %d ranks, want 8", len(p.calls))
	}
}

// TestRunLeavesNoGoroutines: however a run fails, Run returns only once
// every rank's coroutine is gone.
func TestRunLeavesNoGoroutines(t *testing.T) {
	ring := func(r *mpi.Rank) { // every rank receives first: deadlock
		r.Recv(r.World(), (r.Rank()+1)%r.Size(), 0)
	}
	cases := []struct {
		name string
		run  func() error
		want func(error) bool
	}{
		{"deadlock", func() error {
			_, err := mpi.NewWorld(mpi.Config{Size: 4}).Run(ring)
			return err
		}, isDeadlock},
		{"canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := mpi.NewWorld(mpi.Config{Size: 4, Ctx: ctx}).Run(func(r *mpi.Rank) {
				if r.Rank() == 0 {
					cancel()
				}
				for { // only the cancellation ends this loop
					r.Barrier(r.World())
				}
			})
			return err
		}, func(err error) bool { return errors.Is(err, mpi.ErrCanceled) }},
		{"loud crash", func() error {
			plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtCall: 3}}}
			_, err := mpi.NewWorld(mpi.Config{Size: 4, Faults: plan}).Run(haloApp(6))
			return err
		}, func(err error) bool {
			var me *mpi.MPIError
			return errors.As(err, &me) && me.Class == mpi.ErrProcFailed
		}},
		{"silent crash", func() error {
			plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtCall: 3, Silent: true}}}
			_, err := mpi.NewWorld(mpi.Config{Size: 4, Faults: plan}).Run(haloApp(6))
			return err
		}, isDeadlock},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		if err := tc.run(); !tc.want(err) {
			t.Errorf("%s: Run returned %v", tc.name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines after Run, %d before", tc.name, runtime.NumGoroutine(), before)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func isDeadlock(err error) bool {
	var de *mpi.DeadlockError
	return errors.As(err, &de)
}
