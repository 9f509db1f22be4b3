package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// These tests drive the wait-for deadlock detector. Every deadlocking case
// must return a structured DeadlockError instead of hanging the test
// binary; the near-miss cases must complete cleanly.

func TestDeadlockDetection(t *testing.T) {
	cases := []struct {
		name string
		size int
		fn   func(*Rank)
		// check inspects the structured error; nil means the run must
		// succeed.
		check func(t *testing.T, dl *DeadlockError)
	}{
		{
			name: "send-recv cycle",
			size: 2,
			fn: func(r *Rank) {
				// Both ranks receive first: the classic head-to-head
				// deadlock (each waits on a message the other has not
				// sent).
				c := r.World()
				other := 1 - r.Rank()
				r.Recv(c, other, 0)
				r.Send(c, other, 0, 64)
			},
			check: func(t *testing.T, dl *DeadlockError) {
				if len(dl.Blocked) != 2 {
					t.Fatalf("blocked ops = %v, want both ranks", dl.Blocked)
				}
				for i, op := range dl.Blocked {
					if op.Rank != i || op.Func != "MPI_Recv" || op.Peer != 1-i {
						t.Errorf("blocked[%d] = %v, want rank %d in MPI_Recv peer=%d",
							i, op, i, 1-i)
					}
				}
			},
		},
		{
			name: "mismatched collective order across comms",
			size: 2,
			fn: func(r *Rank) {
				// Rank 0 enters the barrier on the world comm, rank 1 on
				// the duplicate: neither collective can complete.
				c := r.World()
				d := r.CommDup(c)
				if r.Rank() == 0 {
					r.Barrier(c)
					r.Barrier(d)
				} else {
					r.Barrier(d)
					r.Barrier(c)
				}
			},
			check: func(t *testing.T, dl *DeadlockError) {
				if len(dl.Blocked) != 2 {
					t.Fatalf("blocked ops = %v, want both ranks", dl.Blocked)
				}
				for i, op := range dl.Blocked {
					if op.Func != "MPI_Barrier" {
						t.Errorf("blocked[%d] = %v, want MPI_Barrier", i, op)
					}
				}
				if dl.Blocked[0].Comm == dl.Blocked[1].Comm {
					t.Errorf("both ranks report comm %d; the report should show the mismatched communicators",
						dl.Blocked[0].Comm)
				}
			},
		},
		{
			name: "missing collective participant",
			size: 3,
			fn: func(r *Rank) {
				// Rank 2 leaves without joining the barrier.
				if r.Rank() == 2 {
					return
				}
				r.Barrier(r.World())
			},
			check: func(t *testing.T, dl *DeadlockError) {
				if len(dl.Blocked) != 2 {
					t.Fatalf("blocked ops = %v, want ranks 0 and 1", dl.Blocked)
				}
				for _, op := range dl.Blocked {
					if op.Func != "MPI_Barrier" || !strings.Contains(op.Detail, "2/3 arrived") {
						t.Errorf("blocked op %v, want MPI_Barrier with 2/3 arrived", op)
					}
				}
			},
		},
		{
			name: "wait on never-sent message",
			size: 2,
			fn: func(r *Rank) {
				// Rank 0 waits on an Irecv whose sender already finished.
				if r.Rank() == 0 {
					req := r.Irecv(r.World(), 1, 7)
					r.Wait(req)
				}
			},
			check: func(t *testing.T, dl *DeadlockError) {
				if len(dl.Blocked) != 1 {
					t.Fatalf("blocked ops = %v, want only rank 0", dl.Blocked)
				}
				op := dl.Blocked[0]
				if op.Rank != 0 || op.Func != "MPI_Wait" || op.Peer != 1 || op.Tag != 7 {
					t.Errorf("blocked op %v, want rank 0 MPI_Wait peer=1 tag=7", op)
				}
				if !strings.Contains(op.Detail, "MPI_Irecv") {
					t.Errorf("detail %q should name the originating MPI_Irecv", op.Detail)
				}
			},
		},
		{
			name: "wildcard recv near miss",
			size: 3,
			fn: func(r *Rank) {
				// Rank 0 blocks on a wildcard receive while both partners
				// are still computing: transiently everyone but rank 0 is
				// busy, then the messages arrive. Must NOT be reported.
				c := r.World()
				if r.Rank() == 0 {
					r.Recv(c, AnySource, AnyTag)
					r.Recv(c, AnySource, AnyTag)
				} else {
					r.Compute(perfmodel.Kernel{IntOps: int64(r.Rank()) * 1e8})
					r.Send(c, 0, r.Rank(), 1<<20) // rendezvous-sized
				}
			},
			check: nil,
		},
		{
			name: "eager completion before waiter wakes",
			size: 2,
			fn: func(r *Rank) {
				// Rank 1's eager send completes rank 0's request on rank
				// 1's own call path; rank 1 then finishes immediately. The
				// match must queue the parked rank 0, or the run queue
				// drains with it unfinished.
				c := r.World()
				if r.Rank() == 0 {
					req := r.Irecv(c, 1, 0)
					r.Wait(req)
				} else {
					r.Compute(perfmodel.Kernel{IntOps: 5e7})
					r.Send(c, 0, 0, 8)
				}
			},
			check: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newTestWorld(tc.size).Run(tc.fn)
			if tc.check == nil {
				if err != nil {
					t.Fatalf("run should succeed, got %v", err)
				}
				return
			}
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("run returned %v, want a DeadlockError", err)
			}
			tc.check(t, dl)
		})
	}
}

func TestCollectiveOpMismatch(t *testing.T) {
	// Two ranks enter different collectives on the same communicator at the
	// same sequence number, or the same one with a different root or
	// reduction op: an ordering bug MPI would corrupt data on. The runtime
	// raises MPI_ERR_COMM instead, whichever rank arrives first (rank 0
	// runs first, so the two orders swap which side rank 0 takes).
	cases := []struct {
		name string
		side [2]func(r *Rank, c *Comm)
	}{
		{"Barrier-Allreduce", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Barrier(c) },
			func(r *Rank, c *Comm) { r.Allreduce(c, 64, OpSum) },
		}},
		{"Allreduce-Ibarrier", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Allreduce(c, 64, OpSum) },
			func(r *Rank, c *Comm) { r.Wait(r.Ibarrier(c)) },
		}},
		{"Barrier-Comm_dup", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Barrier(c) },
			func(r *Rank, c *Comm) { r.CommDup(c) },
		}},
		{"Scan-Exscan", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Scan(c, 8, OpSum) },
			func(r *Rank, c *Comm) { r.Exscan(c, 8, OpSum) },
		}},
		{"File_write_at_all-Barrier", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.FileWriteAtAll(r.FileOpen(c, "m.dat"), 0, 64) },
			func(r *Rank, c *Comm) { r.FileOpen(c, "m.dat"); r.Barrier(c) },
		}},
		{"Alltoall-Alltoallv", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Alltoall(c, 16) },
			func(r *Rank, c *Comm) { r.Alltoallv(c, []int{16, 16}) },
		}},
		{"Reduce-two-roots", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Reduce(c, 0, 64, OpSum) },
			func(r *Rank, c *Comm) { r.Reduce(c, 1, 64, OpSum) },
		}},
		{"Allreduce-two-ops", [2]func(*Rank, *Comm){
			func(r *Rank, c *Comm) { r.Allreduce(c, 64, OpSum) },
			func(r *Rank, c *Comm) { r.Allreduce(c, 64, OpMax) },
		}},
	}
	for _, tc := range cases {
		for first := 0; first < 2; first++ {
			t.Run(fmt.Sprintf("%s-rank0-side%d", tc.name, first), func(t *testing.T) {
				_, err := newTestWorld(2).Run(func(r *Rank) {
					tc.side[(r.Rank()+first)%2](r, r.World())
				})
				var mpiErr *MPIError
				if !errors.As(err, &mpiErr) || mpiErr.Class != ErrComm {
					t.Fatalf("mismatched collectives returned %v, want MPI_ERR_COMM", err)
				}
				if !strings.Contains(mpiErr.Msg, "mismatch") {
					t.Errorf("error %q should describe the mismatch", mpiErr.Msg)
				}
			})
		}
	}
}

func TestDeadlineAbortsPolling(t *testing.T) {
	// A Test/compute polling loop never blocks, so the structural detector
	// cannot see it; the virtual-time deadline must end it.
	_, err := NewWorld(Config{Size: 2, Deadline: vtime.Duration(0.5)}).Run(func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Irecv(r.World(), 1, 0)
			for {
				if done, _ := r.Test(req); done {
					break
				}
				r.Compute(perfmodel.Kernel{IntOps: 1e7})
			}
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("deadline run returned %v, want a DeadlockError", err)
	}
	if !strings.Contains(dl.Reason, "deadline") {
		t.Errorf("reason %q should mention the deadline", dl.Reason)
	}
}

func TestDeadlineGenerousDoesNotTrip(t *testing.T) {
	_, err := NewWorld(Config{Size: 2, Deadline: vtime.Duration(1e6)}).Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.Send(c, 1, 0, 64)
		} else {
			r.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatalf("generous deadline should not trip: %v", err)
	}
}
