package mpi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"siesta/internal/fault"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/proxy"
	"siesta/internal/vtime"
)

// pinLog writes every call's and computation region's virtual times,
// message-edge coordinates and request ids into one transcript, so a hash
// of it pins the runtime's timing call by call.
type pinLog struct {
	buf bytes.Buffer
}

func (pl *pinLog) BeforeCall(*mpi.Rank, *mpi.Call) {}

func (pl *pinLog) AfterCall(r *mpi.Rank, c *mpi.Call) {
	fmt.Fprintf(&pl.buf, "%d %s %x %x sent=%d/%d/%d recv=%d/%d b=%d rb=%d src=%d flag=%t idx=%d req=%d",
		r.Rank(), c.Func, math.Float64bits(float64(c.Start)), math.Float64bits(float64(c.End)),
		c.SentSeq, c.SentDst, c.SentBytes, c.RecvSeq, c.RecvSrcWorld,
		c.Bytes, c.RecvBytes, c.SourceResolved, c.Flag, c.CompletedIndex, c.Request.ID())
	if c.NewComm != nil {
		fmt.Fprintf(&pl.buf, " comm=%d", c.NewComm.ID())
	}
	if c.File != nil {
		fmt.Fprintf(&pl.buf, " file=%d", c.File.ID())
	}
	pl.buf.WriteByte('\n')
}

func (pl *pinLog) OnCompute(r *mpi.Rank, _ perfmodel.Kernel, _ perfmodel.Counters, start, end vtime.Time) {
	fmt.Fprintf(&pl.buf, "%d compute %x %x\n", r.Rank(),
		math.Float64bits(float64(start)), math.Float64bits(float64(end)))
}

// pinKernel is a computation region whose length depends on the rank, so
// ranks reach each call at different virtual times.
func pinKernel(r *mpi.Rank, scale int64) perfmodel.Kernel {
	n := scale * int64(1+r.Rank()%3)
	return perfmodel.Kernel{IntOps: 2 * n, FPOps: n, Loads: n, Stores: n / 2, Branches: n / 4, MissLines: n / 64}
}

// pinP2P drives every point-to-point path between rank pairs (me, me^1):
// blocking, synchronous, non-blocking, combined and persistent sends and
// receives at eager and rendezvous sizes, ProcNull peers on each, payloads,
// wildcards, probes, and the wait/test family.
func pinP2P(r *mpi.Rank) {
	c := r.World()
	me := r.Rank()
	peer := me ^ 1
	even := me%2 == 0
	const small, big = 256, 1 << 20
	r.Compute(pinKernel(r, 1e5))

	// Blocking standard-mode sends, eager then rendezvous, and ProcNull.
	for _, n := range []int{small, big} {
		if even {
			r.Send(c, peer, 1, n)
			r.Recv(c, peer, 2)
		} else {
			r.Recv(c, peer, 1)
			r.Compute(pinKernel(r, 3e4))
			r.Send(c, peer, 2, n)
		}
	}
	r.Send(c, mpi.ProcNull, 3, small)
	r.Recv(c, mpi.ProcNull, 3)

	// Payloads.
	msg := []byte(fmt.Sprintf("payload from rank %d", me))
	got := make([]byte, len(msg))
	if even {
		r.SendBytes(c, peer, 4, msg)
		r.RecvBytes(c, peer, 4, got)
	} else {
		r.RecvBytes(c, peer, 4, got)
		r.SendBytes(c, peer, 4, msg)
	}
	if want := fmt.Sprintf("payload from rank %d", peer); string(got) != want {
		panic(fmt.Sprintf("rank %d received %q, want %q", me, got, want))
	}

	// Synchronous sends: eager size, rendezvous size, ProcNull.
	for _, n := range []int{small, big} {
		if even {
			r.Ssend(c, peer, 5, n)
		} else {
			r.Compute(pinKernel(r, 5e4))
			r.Recv(c, peer, 5)
		}
	}
	r.Ssend(c, mpi.ProcNull, 5, small)

	// Non-blocking pairs with a ProcNull send and receive in the set.
	reqs := []mpi.Req{
		r.Irecv(c, peer, 6),
		r.Irecv(c, peer, 7),
		r.Irecv(c, mpi.ProcNull, 6),
		r.Isend(c, peer, 6, small),
		r.Isend(c, peer, 7, big),
		r.Isend(c, mpi.ProcNull, 7, big),
	}
	r.Compute(pinKernel(r, 2e4))
	r.Waitall(reqs)

	// Waitany over two receives, then Wait on the other.
	a, b := r.Irecv(c, peer, 8), r.Irecv(c, peer, 9)
	if even {
		r.Send(c, peer, 9, small)
		r.Compute(pinKernel(r, 1e4))
		r.Send(c, peer, 8, big)
	} else {
		r.Send(c, peer, 8, small)
		r.Send(c, peer, 9, small)
	}
	idx, _ := r.Waitany([]mpi.Req{a, b})
	if idx == 0 {
		r.Wait(b)
	} else {
		r.Wait(a)
	}

	// Test and Testall polling.
	q := r.Irecv(c, peer, 10)
	r.Compute(pinKernel(r, 1e4))
	s := r.Isend(c, peer, 10, small)
	for {
		if done, _ := r.Test(q); done {
			break
		}
		r.Compute(pinKernel(r, 1e3))
	}
	for !r.Testall([]mpi.Req{s}) {
		r.Compute(pinKernel(r, 1e3))
	}

	// Wildcard receives.
	if even {
		r.Send(c, peer, 11, small)
		r.Send(c, peer, 12, big)
	} else {
		r.Recv(c, mpi.AnySource, mpi.AnyTag)
		r.Recv(c, peer, mpi.AnyTag)
	}

	// Probe and Iprobe, then the receive they looked at.
	if even {
		r.Compute(pinKernel(r, 2e4))
		r.Send(c, peer, 13, small)
		r.Send(c, peer, 14, big)
	} else {
		r.Probe(c, peer, 13)
		r.Recv(c, peer, 13)
		for {
			if ok, _ := r.Iprobe(c, mpi.AnySource, 14); ok {
				break
			}
			r.Compute(pinKernel(r, 1e3))
		}
		r.Recv(c, peer, 14)
	}

	// Sendrecv around a ring: eager, rendezvous, and a ProcNull on either
	// side at the ends of a non-periodic line.
	n := r.Size()
	right, left := (me+1)%n, (me+n-1)%n
	r.Sendrecv(c, right, 15, small, left, 15)
	r.Sendrecv(c, left, 16, big, right, 16)
	lineRight, lineLeft := right, left
	if me == n-1 {
		lineRight = mpi.ProcNull
	}
	if me == 0 {
		lineLeft = mpi.ProcNull
	}
	r.Sendrecv(c, lineRight, 17, small, lineLeft, 17)
	r.Sendrecv(c, lineLeft, 18, big, lineRight, 18)

	// Persistent requests: real peers at both sizes, and ProcNull ones.
	ps := r.SendInit(c, peer, 19, small)
	pb := r.SendInit(c, peer, 20, big)
	prs := r.RecvInit(c, peer, 19)
	prb := r.RecvInit(c, peer, 20)
	pn := r.SendInit(c, mpi.ProcNull, 21, small)
	pnr := r.RecvInit(c, mpi.ProcNull, 21)
	all := []mpi.Req{prs, prb, ps, pb, pn, pnr}
	for it := 0; it < 3; it++ {
		r.Startall(all)
		r.Compute(pinKernel(r, 1e4))
		r.Waitall(all)
	}
	r.Start(prs)
	r.Start(ps)
	r.Wait(ps)
	r.Wait(prs)
	for _, p := range all {
		r.RequestFree(p)
	}
	r.Barrier(c)
}

// pinColl drives every collective: blocking, non-blocking, communicator
// creating and file I/O, with rank-dependent arrival times.
func pinColl(r *mpi.Rank) {
	c := r.World()
	me, n := r.Rank(), r.Size()
	r.Compute(pinKernel(r, 1e5))
	r.Barrier(c)
	r.Bcast(c, 1, 4096)
	r.Reduce(c, 0, 1024, mpi.OpSum)
	r.Allreduce(c, 64, mpi.OpMax)
	r.Gather(c, 0, 512)
	r.Scatter(c, 1, 512)
	r.Allgather(c, 128)
	r.Alltoall(c, 256)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 64 * (1 + (i+me)%3)
	}
	if err := r.Alltoallv(c, counts); err != nil {
		panic(err)
	}
	r.Allgatherv(c, 32*(1+me))
	r.Gatherv(c, 0, 16*(1+me))
	r.Scan(c, 64, mpi.OpSum)
	r.Exscan(c, 64, mpi.OpSum)
	r.ReduceScatter(c, 128, mpi.OpMin)

	half := r.CommSplit(c, me%2, n-me)
	none := r.CommSplit(c, -1, 0)
	if none != nil {
		panic("a negative color must give no communicator")
	}
	dup := r.CommDup(half)
	r.Compute(pinKernel(r, 3e4))
	r.Allreduce(dup, 8, mpi.OpSum)
	r.Bcast(half, 0, 1<<16)

	ib := r.Ibarrier(c)
	r.Compute(pinKernel(r, 2e4))
	ic := r.Ibcast(dup, 0, 2048)
	ia := r.Iallreduce(c, 256, mpi.OpSum)
	r.Wait(ib)
	r.Waitall([]mpi.Req{ic, ia})
	r.CommFree(dup)

	f := r.FileOpen(c, "pin.dat")
	r.FileWriteAt(f, me*4096, 4096)
	r.Compute(pinKernel(r, 1e4))
	r.FileWriteAtAll(f, me*8192, 8192*(1+me%2))
	r.FileReadAtAll(f, me*8192, 8192)
	r.FileReadAt(f, me*4096, 4096)
	r.FileClose(f)
	r.Barrier(c)
}

// pinHash runs app once and hashes its RunResult and its call transcript.
func pinHash(t *testing.T, cfg mpi.Config, app func(*mpi.Rank)) string {
	t.Helper()
	pl := &pinLog{}
	cfg.Interceptor = pl
	res, err := mpi.NewWorld(cfg).Run(app)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	h := sha256.New()
	h.Write(pl.buf.Bytes())
	fmt.Fprintf(h, "exec %x\n", math.Float64bits(float64(res.ExecTime)))
	for _, rr := range res.Ranks {
		fmt.Fprintf(h, "rank %d finish %x comm %x compute %x calls %d counters %v\n", rr.Rank,
			math.Float64bits(float64(rr.FinishTime)), math.Float64bits(float64(rr.CommTime)),
			math.Float64bits(float64(rr.ComputeTime)), rr.Calls, rr.Compute)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestVirtualTimePin pins, call by call, the virtual times, message edges
// and request ids of programs that use every send, receive, collective and
// request path of the runtime, under three implementation models, run
// variation and a delaying fault plan, plus a few random programs. A
// change to the runtime that is meant to keep its semantics must keep
// these hashes.
func TestVirtualTimePin(t *testing.T) {
	delay := &fault.Plan{Delays: []fault.Delay{{Match: fault.Match{Src: fault.Any, Dst: fault.Any, Tag: fault.Any}, Factor: 1.5, Add: vtime.Duration(2e-6)}}}
	cases := []struct {
		name string
		cfg  mpi.Config
		app  func(*mpi.Rank)
		want string
	}{
		{"p2p-openmpi-4", mpi.Config{Size: 4}, pinP2P, "0fd39cec6a760c54"},
		{"p2p-mpich-6-variation", mpi.Config{Size: 6, Impl: netmodel.MPICH, RunVariation: 0.1, Seed: 7}, pinP2P, "6bc8af504c9e81e1"},
		{"p2p-mvapich-4-delay", mpi.Config{Size: 4, Impl: netmodel.MVAPICH, Faults: delay}, pinP2P, "9f2fb1e606073075"},
		{"coll-openmpi-5", mpi.Config{Size: 5}, pinColl, "9746cd223a1babba"},
		{"coll-mpich-8-variation", mpi.Config{Size: 8, Impl: netmodel.MPICH, RunVariation: 0.1, Seed: 3}, pinColl, "092b40cef8f66677"},
		{"random-1", mpi.Config{Size: 4}, proxy.RandomProgram(1, 12), "f8cf8ce3bea37404"},
		{"random-2", mpi.Config{Size: 6, RunVariation: 0.05, Seed: 2}, proxy.RandomProgram(2, 12), "bd85f18310e8e0e0"},
		{"random-3", mpi.Config{Size: 5, Impl: netmodel.MVAPICH}, proxy.RandomProgram(3, 16), "ecae960fde98b499"},
		{"random-4", mpi.Config{Size: 8, Faults: delay}, proxy.RandomProgram(4, 16), "5ea64b68606a34c8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinHash(t, tc.cfg, tc.app)
			if again := pinHash(t, tc.cfg, tc.app); again != got {
				t.Fatalf("two runs hash %s and %s", got, again)
			}
			if got != tc.want {
				t.Errorf("hash %s, want %s", got, tc.want)
			}
		})
	}
}
