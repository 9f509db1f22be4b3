package mpi

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// poison is what a recycled object holds until it is handed out again:
// ids and ranks no live object carries, a NaN time and pointers to a
// shared poison request, so a use after release panics, races or changes
// a result.
const poison = -0x5eedbad

// poisonFunc is a call outside the table.
const poisonFunc = mpicall.Func(0xff)

var poisonReq = &request{id: poison, kind: poison, owner: poison, time: math.NaN(),
	st: Status{Source: poison, Tag: poison, Bytes: poison}, op: poisonFunc,
	peer: poison, tag: poison, commID: poison, matchedSrc: poison, matchedSeq: poison}

// poisonReleased fills every message, posted receive, request and
// collective slot the runtime recycles with poison and counts them by
// kind. The caller must restore before another test runs a world.
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
		case *request:
			count("request")
			count("request " + x.op.String())
			*x = *poisonReq
		case *collSlot:
			// A completed slot at +Inf: a stale reader's clock jumps
			// there, and a stale arrival's time is swallowed by maxIn.
			*x = collSlot{expected: poison, arrived: poison, maxIn: vtime.Time(math.Inf(1)),
				bytes: poison, price: poison, fn: poisonFunc, root: poison, op: "poisoned",
				outTime: vtime.Time(math.Inf(1)), completed: true, readers: poison,
				splitArgs: map[int][2]int{}, newComms: map[int]*Comm{},
				sharedFile: &File{id: poison, name: "poisoned"}, waiters: []*request{poisonReq}}
			count("collSlot")
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
	c.Comm, c.NewComm, c.Request, c.Requests, c.File, c.Counts = nil, nil, Req{}, nil, nil, nil
	cl.ranks[r.Rank()] = append(cl.ranks[r.Rank()], c)
}

// recycleApp drives every path that recycles: eager and rendezvous
// Sendrecv, blocking rendezvous Send/Recv, wildcard receives, Ssend with
// Probe, Waitany over pending receives followed by a Waitall that re-waits
// its stale handle, Test and Testall polling, persistent requests,
// blocking and non-blocking collectives, split and duplicated
// communicators and collective file I/O.
func recycleApp(r *Rank) {
	c := r.World()
	n, me := r.Size(), r.Rank()
	right, left := (me+1)%n, (me+n-1)%n
	const big = 1 << 20 // rendezvous on every implementation model
	half := r.CommSplit(c, me%2, me)
	dup := r.CommDup(half)
	f := r.FileOpen(c, "recycle.dat")
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
		reqs := []Req{r.Irecv(c, left, 20), r.Irecv(c, left, 21), r.Isend(c, right, 21, 128), r.Isend(c, right, 20, big)}
		r.Waitany(reqs)
		r.Waitall(reqs)
		r.Startall([]Req{psend, precv})
		r.Waitall([]Req{psend, precv})
		tq := r.Isend(c, right, 40, big)
		rq := r.Irecv(c, left, 40)
		for done, _ := r.Test(tq); !done; done, _ = r.Test(tq) {
		}
		for !r.Testall([]Req{rq}) {
		}
		r.Wait(r.Iallreduce(c, 8, OpSum))
		r.Allreduce(c, 8, OpSum)
		r.Allreduce(half, 64, OpMax)
		r.Bcast(dup, 0, 32)
		r.FileWriteAtAll(f, (it*n+me)*64, 64)
		ib := r.Ibarrier(c)
		r.Compute(perfmodel.Kernel{FPOps: 5e4})
		r.Wait(ib)
	}
	r.RequestFree(psend)
	r.RequestFree(precv)
	r.FileClose(f)
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
// receive and request it recycles poisoned — the requests blocking calls
// make for themselves and the ones apps hold through handles alike — so
// one read after its release panics, races or changes a result: the mixed
// workload keeps its run results and every call record field for field,
// and the pinned failure reports and deadlock cases keep theirs.
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
	for _, kind := range []string{"message", "postedRecv", "request", "collSlot",
		"request MPI_Sendrecv", "request MPI_Isend", "request MPI_Irecv",
		"request MPI_Iallreduce", "request MPI_Ibarrier",
		"request MPI_Send_init", "request MPI_Recv_init"} {
		if released[kind] == 0 {
			t.Errorf("no %s was released, so none was poisoned", kind)
		}
	}
	t.Logf("released: %v", released)
}

// TestStaleRequestHandle: once the Wait or Test that completed a request
// returns, its handle is stale and behaves as MPI_REQUEST_NULL — Wait,
// Waitall and Waitany return at once without touching the clock, Test
// reports true with an empty status — while the request that reuses its
// slot stays pending until its own message arrives. A persistent request
// freed in flight is detached: the message it still receives does not
// complete the slot's next owner.
func TestStaleRequestHandle(t *testing.T) {
	check := func(ok bool, what string) {
		if !ok {
			panic(what)
		}
	}
	_, err := newTestWorld(2).Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 1 {
			r.Send(c, 0, 1, 16)
			r.Recv(c, 0, 9) // rank 0 has re-waited its stale handle
			r.Send(c, 0, 2, 32)
			r.Recv(c, 0, 9) // rank 0 has freed its started persistent receive
			r.Send(c, 0, 5, 48)
			r.Send(c, 0, 7, 8) // non-overtaking: tag 5 is matched first
			r.Recv(c, 0, 9)
			r.Send(c, 0, 6, 64)
			return
		}
		a := r.Irecv(c, 1, 1)
		check(r.Wait(a).Bytes == 16, "first receive resolved the wrong status")
		b := r.Irecv(c, 1, 2)
		check(b.slot == a.slot && b.gen != a.gen, "the second request did not reuse the freed slot")
		check(a.Done() && !a.Persistent(), "a stale handle should read as a completed ordinary request")
		if _, _, ok := a.MatchedMessage(); ok {
			panic("a stale handle reported a matched message")
		}

		now := r.Now()
		check(r.Wait(a) == Status{}, "waiting on a stale handle returned a status")
		r.Waitall([]Req{a, {}})
		idx, _ := r.Waitany([]Req{a})
		check(idx == -1, "Waitany over stale handles picked one")
		check(r.Now() == now, "waiting on stale handles moved the clock")
		done, st := r.Test(a)
		check(done && st == Status{}, "Test on a stale handle should report an empty completion")
		check(!b.Done(), "a stale handle completed the slot's new owner")

		r.Send(c, 1, 9, 8)
		check(r.Wait(b).Bytes == 32, "the slot's new owner resolved the wrong status")

		p := r.RecvInit(c, 1, 5)
		r.Start(p)
		r.RequestFree(p) // in flight: the runtime detaches it
		q := r.Irecv(c, 1, 6)
		check(q.slot == p.slot, "the freed persistent slot was not reused")
		r.Send(c, 1, 9, 8)
		r.Recv(c, 1, 7)
		check(!q.Done(), "the detached request's message completed the slot's new owner")
		r.Send(c, 1, 9, 8)
		check(r.Wait(q).Bytes == 64, "the slot's new owner resolved the wrong status")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestSlabStress cycles a million requests through one rank's slab
// with up to eight in flight, released out of order: the slab never grows
// past the peak in flight, every live handle resolves to its own request,
// and every released handle is stale for good.
func TestRequestSlabStress(t *testing.T) {
	r := newTestWorld(1).ranks[0]
	const inFlight = 8
	var live [inFlight]Req
	var stale []Req
	for i := 0; i < 1000000; i++ {
		k := (i * 5) % inFlight // a permutation of the ring each round
		if q := live[k]; !q.IsZero() {
			r.freeRequest(q.live())
			if i%100003 == 0 {
				stale = append(stale, q)
			}
		}
		live[k] = r.handle(r.newRequest(reqSend))
		if q := live[k]; q.id != i {
			t.Fatalf("request %d got id %d", i, q.id)
		}
		for _, q := range live {
			if req := q.live(); !q.IsZero() && (req == nil || req.id != q.id) {
				t.Fatalf("cycle %d: live handle %d does not resolve to its request", i, q.id)
			}
		}
	}
	for _, q := range stale {
		if q.live() != nil {
			t.Fatalf("released handle %d resolves again", q.id)
		}
	}
	if len(r.reqs) != inFlight || len(r.freeSlots) != 0 {
		t.Fatalf("slab holds %d slots, %d free; want %d, 0", len(r.reqs), len(r.freeSlots), inFlight)
	}
}
