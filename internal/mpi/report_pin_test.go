package mpi

import (
	"reflect"
	"testing"

	"siesta/internal/fault"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// reportPrograms are failing runs whose failure reports are fully
// deterministic: whatever order the ranks reach their final blocking calls,
// the state the detector reports from is the same.
var reportPrograms = []struct {
	name     string
	size     int
	plan     *fault.Plan
	deadline vtime.Duration
	fn       func(*Rank)
}{
	{
		name: "barrier64-missing-rank",
		size: 64,
		fn: func(r *Rank) {
			c := r.World()
			for i := 0; i < 3; i++ {
				r.Barrier(c)
			}
			if r.Rank() == 63 {
				return
			}
			r.Barrier(c)
		},
	},
	{
		name: "silent-crash16-sendrecv-allreduce",
		size: 16,
		plan: &fault.Plan{Crashes: []fault.Crash{{Rank: 5, AtCall: 7, Silent: true}}},
		fn: func(r *Rank) {
			c := r.World()
			right, left := (r.Rank()+1)%r.Size(), (r.Rank()+r.Size()-1)%r.Size()
			for i := 0; i < 10; i++ {
				r.Sendrecv(c, right, i, 64, left, i)
				r.Allreduce(c, 8, OpSum)
			}
		},
	},
	{
		name: "waitany-never-completes",
		size: 2,
		fn: func(r *Rank) {
			if r.Rank() == 1 {
				return
			}
			c := r.World()
			reqs := []Req{r.Irecv(c, 1, 1), r.Irecv(c, 1, 2)}
			r.Waitany(reqs)
		},
	},
	{
		name: "rendezvous-send-cycle",
		size: 2,
		fn: func(r *Rank) {
			c := r.World()
			other := 1 - r.Rank()
			r.Send(c, other, 3, 1<<20)
			r.Recv(c, other, 3)
		},
	},
	{
		name: "loud-crash",
		size: 4,
		plan: &fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtCall: 4}}},
		fn: func(r *Rank) {
			c := r.World()
			right, left := (r.Rank()+1)%r.Size(), (r.Rank()+r.Size()-1)%r.Size()
			for i := 0; i < 5; i++ {
				r.Sendrecv(c, right, 0, 64, left, 0)
			}
		},
	},
	{
		// Rank 0 polls past the virtual-time deadline while ranks 1 and 2
		// sit parked in Recv from it: the deadline report lists the parked
		// ranks only.
		name:     "deadline-polling-rank",
		size:     3,
		deadline: 0.5,
		fn: func(r *Rank) {
			c := r.World()
			if r.Rank() != 0 {
				r.Recv(c, 0, 1)
				return
			}
			req := r.Irecv(c, 1, 2)
			for {
				r.Test(req)
				r.Compute(perfmodel.Kernel{IntOps: 1e6})
			}
		},
	},
}

// collectiveOps is the report of ranks blocked in one world-communicator
// collective: the same entry for each rank, in rank order.
func collectiveOps(fn, detail string, ranks ...int) []PendingOp {
	ops := make([]PendingOp, len(ranks))
	for i, rk := range ranks {
		ops[i] = PendingOp{Rank: rk, Func: fn, Comm: 0, Peer: NoPeer, Tag: 0, Detail: detail}
	}
	return ops
}

func rankRange(lo, hi int) []int {
	var rs []int
	for rk := lo; rk < hi; rk++ {
		rs = append(rs, rk)
	}
	return rs
}

// TestDeadlockAndFaultReportsPinned pins every field of the failure
// reports of reportPrograms, Detail strings included, so that where and
// when the verdict is made can never change what it reports.
func TestDeadlockAndFaultReportsPinned(t *testing.T) {
	crashAllreduce := "seq 3, 14/16 arrived"
	want := map[string]error{
		"barrier64-missing-rank": &DeadlockError{
			Reason:  "no rank can make progress",
			Blocked: collectiveOps("MPI_Barrier", "seq 3, 63/64 arrived", rankRange(0, 63)...),
		},
		"silent-crash16-sendrecv-allreduce": &DeadlockError{
			Reason: "no surviving rank can make progress",
			Blocked: append(append(collectiveOps("MPI_Allreduce", crashAllreduce, 0, 1, 2, 3, 4),
				PendingOp{Rank: 6, Func: "MPI_Sendrecv", Comm: 0, Peer: 5, Tag: 3, Detail: "request #7 from MPI_Sendrecv"}),
				collectiveOps("MPI_Allreduce", crashAllreduce, rankRange(7, 16)...)...),
			Crashed: []int{5},
		},
		"waitany-never-completes": &DeadlockError{
			Reason:  "no rank can make progress",
			Blocked: []PendingOp{{Rank: 0, Func: "MPI_Waitany", Comm: -1, Peer: NoPeer, Tag: 0, Detail: "any of 2 requests"}},
		},
		"rendezvous-send-cycle": &DeadlockError{
			Reason: "no rank can make progress",
			Blocked: []PendingOp{
				{Rank: 0, Func: "MPI_Send", Comm: 0, Peer: 1, Tag: 3, Detail: "rendezvous handshake"},
				{Rank: 1, Func: "MPI_Send", Comm: 0, Peer: 0, Tag: 3, Detail: "rendezvous handshake"},
			},
		},
		"loud-crash": &MPIError{Class: ErrProcFailed, Rank: 2, Op: "MPI_Sendrecv", Msg: "rank killed by fault plan at call 4"},
		"deadline-polling-rank": &DeadlockError{
			Reason: "virtual-time deadline 500.000ms exceeded on rank 0 in a computation region",
			Blocked: []PendingOp{
				{Rank: 1, Func: "MPI_Recv", Comm: 0, Peer: 0, Tag: 1},
				{Rank: 2, Func: "MPI_Recv", Comm: 0, Peer: 0, Tag: 1},
			},
		},
	}
	for _, p := range reportPrograms {
		t.Run(p.name, func(t *testing.T) {
			for k := 0; k < 5; k++ {
				w := NewWorld(Config{Size: p.size, Faults: p.plan, Deadline: p.deadline})
				_, err := w.Run(p.fn)
				if !reflect.DeepEqual(err, want[p.name]) {
					t.Fatalf("run %d report:\n%#v\nwant:\n%#v", k, err, want[p.name])
				}
			}
		})
	}
}
