package mpi

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// poison is what a recycled object holds until it is handed out again:
// ids and ranks no live object carries, a NaN time and pointers to a
// shared poison request, so a use after release panics, races or changes
// a result.
const poison = -0x5eedbad

var poisonReq = &Request{id: poison, kind: poison, owner: poison, time: math.NaN(),
	st: Status{Source: poison, Tag: poison, Bytes: poison}, op: "poisoned",
	peer: poison, tag: poison, commID: poison, matchedSrc: poison, matchedSeq: poison}

// poisonReleased fills every message, posted receive and request the
// runtime recycles with poison and counts them by kind. The caller must
// restore before another test runs a world.
func poisonReleased(released map[string]int) (restore func()) {
	var mu sync.Mutex
	count := func(kind string) {
		mu.Lock()
		released[kind]++
		mu.Unlock()
	}
	releaseHook = func(x any) {
		switch x := x.(type) {
		case *message:
			*x = message{commID: poison, srcComm: poison, dstWorld: poison, srcWorld: poison,
				tag: poison, bytes: poison, seq: poison, payload: []byte("poisoned"), eager: true,
				readyTime: vtime.Time(math.NaN()), wire: vtime.Duration(math.NaN()), sendReq: poisonReq}
			count("message")
		case *postedRecv:
			*x = postedRecv{commID: poison, src: poison, tag: poison,
				postTime: vtime.Time(math.NaN()), req: poisonReq}
			count("postedRecv")
		case *Request:
			*x = *poisonReq
			count("request")
		}
	}
	return func() { releaseHook = nil }
}

// callLog copies every call's observable fields, so two runs can be
// compared call for call.
type callLog struct {
	NopInterceptor
	ranks [][]Call
}

func (cl *callLog) AfterCall(r *Rank, call *Call) {
	c := *call
	c.Comm, c.NewComm, c.Request, c.Requests, c.File, c.Counts = nil, nil, nil, nil, nil, nil
	cl.ranks[r.Rank()] = append(cl.ranks[r.Rank()], c)
}

// recycleApp drives every path that recycles: eager and rendezvous
// Sendrecv, blocking rendezvous Send/Recv, wildcard receives, Ssend with
// Probe, Waitany over pending receives, persistent requests, blocking and
// non-blocking collectives and a split communicator.
func recycleApp(r *Rank) {
	c := r.World()
	n, me := r.Size(), r.Rank()
	right, left := (me+1)%n, (me+n-1)%n
	const big = 1 << 20 // rendezvous on every implementation model
	half := r.CommSplit(c, me%2, me)
	psend, precv := r.SendInit(c, right, 30, 2048), r.RecvInit(c, left, 30)
	for it := 0; it < 4; it++ {
		r.Compute(perfmodel.Kernel{IntOps: 1e5 * int64(1+me), Loads: 4e4})
		r.Sendrecv(c, right, it, 512, left, it)
		r.Sendrecv(c, right, it, big, left, it)
		if me%2 == 0 {
			r.Send(c, right, 7, big)
			r.Recv(c, left, 7)
		} else {
			r.Recv(c, left, 7)
			r.Send(c, right, 7, big)
		}
		sreq := r.Isend(c, right, 9, 64)
		r.Recv(c, AnySource, 9)
		r.Wait(sreq)
		if me%2 == 0 {
			r.Ssend(c, me+1, 11, 256)
		} else {
			r.Probe(c, me-1, 11)
			r.Recv(c, me-1, 11)
		}
		reqs := []*Request{r.Irecv(c, left, 20), r.Irecv(c, left, 21), r.Isend(c, right, 21, 128), r.Isend(c, right, 20, big)}
		r.Waitany(reqs)
		r.Waitall(reqs)
		r.Startall([]*Request{psend, precv})
		r.Waitall([]*Request{psend, precv})
		r.Allreduce(c, 8, OpSum)
		r.Allreduce(half, 64, OpMax)
		ib := r.Ibarrier(c)
		r.Compute(perfmodel.Kernel{FPOps: 5e4})
		r.Wait(ib)
	}
	r.RequestFree(psend)
	r.RequestFree(precv)
}

func runRecycleApp(t *testing.T, seed uint64) (*RunResult, [][]Call) {
	t.Helper()
	const size = 6
	cl := &callLog{ranks: make([][]Call, size)}
	res, err := NewWorld(Config{Size: size, Seed: seed, NoiseSigma: 0.01, RunVariation: 0.05, Interceptor: cl}).Run(recycleApp)
	if err != nil {
		t.Fatal(err)
	}
	return res, cl.ranks
}

// TestRuntimeRecyclePoison runs the runtime with every message, posted
// receive and request it recycles poisoned, so one read after its release
// panics, races or changes a result: the mixed workload keeps its run
// results and every call record field for field, and the pinned failure
// reports and deadlock cases keep theirs.
func TestRuntimeRecyclePoison(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	want := make([]*RunResult, len(seeds))
	wantCalls := make([][][]Call, len(seeds))
	for i, seed := range seeds {
		want[i], wantCalls[i] = runRecycleApp(t, seed)
	}

	released := map[string]int{}
	restore := poisonReleased(released)
	defer restore()

	for i, seed := range seeds {
		res, calls := runRecycleApp(t, seed)
		if !reflect.DeepEqual(res, want[i]) {
			t.Errorf("seed %d: run results changed under poisoning", seed)
		}
		for rk := range calls {
			if !reflect.DeepEqual(calls[rk], wantCalls[i][rk]) {
				t.Errorf("seed %d: rank %d's call records changed under poisoning", seed, rk)
			}
		}
	}
	t.Run("reports", TestDeadlockAndFaultReportsPinned)
	t.Run("deadlocks", TestDeadlockDetection)
	for _, kind := range []string{"message", "postedRecv", "request"} {
		if released[kind] == 0 {
			t.Errorf("no %s was released, so none was poisoned", kind)
		}
	}
	t.Logf("released: %v", released)
}
