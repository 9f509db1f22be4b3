package proxy

import (
	"math/rand"

	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
)

// RandomProgram generates a deterministic, deadlock-free, rank-symmetric
// SPMD program from a seed: a random sequence of phases drawn from the
// whole traced call surface (computation, collectives, ring exchanges,
// non-blocking halos, synchronous sends, persistent pairs, prefix scans,
// communicator duplication, MPI-IO), with nested repetition to give the
// grammar stage real loop structure. Safety by construction: every
// point-to-point phase posts receives before synchronous sends, and every
// rank executes the identical sequence. It powers the pipeline's
// property-based harnesses — replay fidelity here, and the static
// verifier's clean corpus in internal/check.
func RandomProgram(seed int64, phases int) func(*mpi.Rank) {
	type phase struct {
		kind   int
		bytes  int
		offset int
		reps   int
	}
	rng := rand.New(rand.NewSource(seed))
	plan := make([]phase, phases)
	for i := range plan {
		plan[i] = phase{
			kind:   rng.Intn(14),
			bytes:  1 << (4 + rng.Intn(14)), // 16 B – 128 KB
			offset: 1 + rng.Intn(3),
			reps:   1 + rng.Intn(4),
		}
	}
	kernels := make([]perfmodel.Kernel, 4)
	for i := range kernels {
		base := int64(1+rng.Intn(20)) * 100_000
		kernels[i] = perfmodel.Kernel{
			IntOps:    base * 2,
			FPOps:     base * int64(1+rng.Intn(3)),
			Loads:     base * 2,
			Stores:    base / 2,
			Branches:  base,
			MissLines: base / int64(8+rng.Intn(16)),
		}
	}

	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		dup := r.CommDup(c)
		f := r.FileOpen(c, "random.chk")
		writes := 0
		for pi, ph := range plan {
			off := ph.offset % P
			if off == 0 {
				off = 1
			}
			next := (r.Rank() + off) % P
			prev := (r.Rank() - off + P) % P
			for rep := 0; rep < ph.reps; rep++ {
				switch ph.kind {
				case 0:
					r.Compute(kernels[pi%len(kernels)])
				case 1:
					r.Barrier(c)
				case 2:
					r.Bcast(c, 0, ph.bytes)
				case 3:
					r.Allreduce(dup, ph.bytes%1024+8, mpi.OpSum)
				case 4:
					r.Sendrecv(c, next, pi, ph.bytes, prev, pi)
				case 5: // non-blocking halo
					reqs := []mpi.Req{
						r.Irecv(c, prev, 100+pi),
						r.Irecv(c, next, 200+pi),
						r.Isend(c, next, 100+pi, ph.bytes),
						r.Isend(c, prev, 200+pi, ph.bytes),
					}
					r.Waitall(reqs)
				case 6: // synchronous ring: post receive first
					rq := r.Irecv(c, prev, 300+pi)
					r.Ssend(c, next, 300+pi, ph.bytes)
					r.Wait(rq)
				case 7:
					r.Scan(c, ph.bytes%512+8, mpi.OpSum)
				case 8:
					r.ReduceScatter(c, ph.bytes%512+8, mpi.OpMax)
				case 9:
					r.Alltoall(c, ph.bytes%4096+16)
				case 10: // persistent pair for this phase
					ps := r.SendInit(c, next, 400+pi, ph.bytes)
					pr := r.RecvInit(c, prev, 400+pi)
					for k := 0; k < 2; k++ {
						r.Start(pr)
						r.Start(ps)
						r.Wait(ps)
						r.Wait(pr)
					}
					r.RequestFree(ps)
					r.RequestFree(pr)
				case 11:
					r.FileWriteAtAll(f, (writes*P+r.Rank())*ph.bytes, ph.bytes)
					writes++
				case 12: // non-blocking barrier overlapped with compute
					rq := r.Ibarrier(c)
					r.Compute(kernels[(pi+1)%len(kernels)])
					r.Wait(rq)
				case 13: // non-blocking allreduce + bcast pair
					ra := r.Iallreduce(c, ph.bytes%256+8, mpi.OpSum)
					rb := r.Ibcast(c, 0, ph.bytes%1024+8)
					r.Waitall([]mpi.Req{ra, rb})
				}
			}
		}
		r.FileClose(f)
		r.CommFree(dup)
		r.Allreduce(c, 8, mpi.OpSum)
	}
}
