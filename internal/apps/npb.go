package apps

import (
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
)

// Scaled-down total problem volumes (the paper runs class D; these keep
// virtual runs fast while preserving each kernel's character and the
// strong-scaling behaviour of a fixed total problem size).
const (
	cgNNZ   = 40_000_000  // nonzeros of the CG sparse matrix
	btCells = 150_000_000 // BT grid cells
	spCells = 130_000_000
	mgCells = 256_000_000
	isKeys  = 64_000_000
)

func init() {
	register(&Spec{
		Name:         "BT",
		Description:  "NPB block-tridiagonal pseudo-application: square process grid, face exchanges plus pipelined x/y/z line solves",
		DefaultIters: 12,
		ValidRanks:   isSquare,
		Build:        buildBT,
	})
	register(&Spec{
		Name:         "CG",
		Description:  "NPB conjugate gradient: memory-bound SpMV with row-transpose exchanges and dot-product allreduces",
		DefaultIters: 8,
		ValidRanks:   isPow2,
		Build:        buildCG,
	})
	register(&Spec{
		Name:         "IS",
		Description:  "NPB integer sort: bucket histogramming with allreduce and an irregular all-to-all-v key exchange",
		DefaultIters: 10,
		ValidRanks:   isPow2,
		Build:        buildIS,
	})
	register(&Spec{
		Name:         "MG",
		Description:  "NPB multigrid V-cycle: 3D halo exchanges with level-dependent message sizes and residual allreduces",
		DefaultIters: 6,
		ValidRanks:   isPow2,
		Build:        buildMG,
	})
	register(&Spec{
		Name:         "SP",
		Description:  "NPB scalar-pentadiagonal pseudo-application: BT's topology with a division-heavy solver profile",
		DefaultIters: 16,
		ValidRanks:   isSquare,
		Build:        buildSP,
	})
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func scaleKernel(k perfmodel.Kernel, f float64) perfmodel.Kernel {
	return perfmodel.Kernel{
		IntOps:       int64(float64(k.IntOps) * f),
		FPOps:        int64(float64(k.FPOps) * f),
		DivOps:       int64(float64(k.DivOps) * f),
		Loads:        int64(float64(k.Loads) * f),
		Stores:       int64(float64(k.Stores) * f),
		Branches:     int64(float64(k.Branches) * f),
		RandBranches: int64(float64(k.RandBranches) * f),
		MissLines:    int64(float64(k.MissLines) * f),
	}
}

// --- BT / SP ---------------------------------------------------------------

// btLike builds the shared BT/SP skeleton: a √P×√P process grid doing a
// face-exchange phase followed by pipelined line solves in x and y (the
// simulated runtime has no third data dimension to pipeline, so the z solve
// is a local kernel, which preserves the trace's loop structure).
func btLike(iters, cells int, rhs, solve perfmodel.Kernel) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		d := intSqrt(P)
		row, col := r.Rank()/d, r.Rank()%d
		east := row*d + (col+1)%d
		west := row*d + (col-1+d)%d
		south := ((row+1)%d)*d + col
		north := ((row-1+d)%d)*d + col
		perRank := cells / P
		faceBytes := 5 * 8 * intSqrt(perRank) * 16
		lineBytes := 5 * 8 * intSqrt(perRank) * 8

		reqs := make([]mpi.Req, 8) // reused by every iteration
		for it := 0; it < iters; it++ {
			// copy_faces: four simultaneous halo exchanges.
			reqs[0], reqs[1] = r.Irecv(c, west, 10), r.Irecv(c, east, 11)
			reqs[2], reqs[3] = r.Irecv(c, north, 12), r.Irecv(c, south, 13)
			reqs[4], reqs[5] = r.Isend(c, east, 10, faceBytes), r.Isend(c, west, 11, faceBytes)
			reqs[6], reqs[7] = r.Isend(c, south, 12, faceBytes), r.Isend(c, north, 13, faceBytes)
			r.Waitall(reqs)
			r.Compute(rhs)

			// x_solve: forward substitution east, back substitution west.
			if col != 0 {
				r.Recv(c, west, 20)
			}
			r.Compute(solve)
			if col != d-1 {
				r.Send(c, east, 20, lineBytes)
				r.Recv(c, east, 21)
			}
			r.Compute(solve)
			if col != 0 {
				r.Send(c, west, 21, lineBytes)
			}

			// y_solve: the same pipeline north-south.
			if row != 0 {
				r.Recv(c, north, 22)
			}
			r.Compute(solve)
			if row != d-1 {
				r.Send(c, south, 22, lineBytes)
				r.Recv(c, south, 23)
			}
			r.Compute(solve)
			if row != 0 {
				r.Send(c, north, 23, lineBytes)
			}

			// z_solve is rank-local.
			r.Compute(solve)
		}
		// Verification residual.
		r.Allreduce(c, 40, mpi.OpSum)
	}
}

func buildBT(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("BT")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	perRank := float64(btCells/p.Ranks) * p.work()
	// BT is FP-dense and well predicted: the high-IPC NPB code.
	rhs := scaleKernel(perfmodel.Kernel{
		FPOps: 38, IntOps: 6, Loads: 14, Stores: 5, Branches: 9,
	}, perRank/8)
	rhs.MissLines = int64(perRank / 48)
	solve := scaleKernel(perfmodel.Kernel{
		FPOps: 25, IntOps: 4, Loads: 9, Stores: 4, Branches: 7,
	}, perRank/24)
	solve.DivOps = int64(perRank / 160)
	solve.MissLines = int64(perRank / 100)
	return btLike(p.iters(spec.DefaultIters), btCells, rhs, solve), nil
}

func buildSP(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("SP")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	perRank := float64(spCells/p.Ranks) * p.work()
	// SP's scalar solves lean on divisions: lower IPC than BT.
	rhs := scaleKernel(perfmodel.Kernel{
		FPOps: 30, IntOps: 5, Loads: 12, Stores: 5, Branches: 8,
	}, perRank/10)
	rhs.MissLines = int64(perRank / 55)
	solve := scaleKernel(perfmodel.Kernel{
		FPOps: 15, IntOps: 3, Loads: 8, Stores: 3, Branches: 5,
	}, perRank/28)
	solve.DivOps = int64(perRank / 40)
	solve.MissLines = int64(perRank / 120)
	return btLike(p.iters(spec.DefaultIters), spCells, rhs, solve), nil
}

// --- CG ---------------------------------------------------------------

func buildCG(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("CG")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	iters := p.iters(spec.DefaultIters)
	const cgit = 5 // inner CG iterations (25 in NPB, scaled down)
	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		rows, cols := grid2D(P)
		_ = rows
		myCol := r.Rank() % cols
		perRank := float64(cgNNZ/P) * p.work()
		vecBytes := 8 * (1 << 20) / cols

		// SpMV is the textbook memory-bound kernel: indirect loads, poor
		// locality, low IPC.
		spmv := scaleKernel(perfmodel.Kernel{
			FPOps: 2, IntOps: 1, Loads: 3, Stores: 0, Branches: 1,
		}, perRank)
		spmv.Stores = int64(perRank / 16)
		spmv.MissLines = int64(perRank / 5)
		dot := scaleKernel(perfmodel.Kernel{
			FPOps: 2, IntOps: 1, Loads: 2, Branches: 1,
		}, perRank/64)
		dot.MissLines = int64(perRank / 640)

		for it := 0; it < iters; it++ {
			for inner := 0; inner < cgit; inner++ {
				r.Compute(spmv)
				// Row-transpose reduction: butterfly over the row.
				for k := 1; k < cols; k <<= 1 {
					partnerCol := myCol ^ k
					partner := (r.Rank()/cols)*cols + partnerCol
					r.Sendrecv(c, partner, 30, vecBytes, partner, 30)
				}
				r.Compute(dot)
				r.Allreduce(c, 8, mpi.OpSum)
			}
			// Residual norm.
			r.Compute(dot)
			r.Allreduce(c, 8, mpi.OpSum)
		}
	}, nil
}

// --- MG ---------------------------------------------------------------

func buildMG(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("MG")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	iters := p.iters(spec.DefaultIters)
	const levels = 4
	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		nx, ny, nz := grid3D(P)
		me := r.Rank()
		ix, iy, iz := me%nx, (me/nx)%ny, me/(nx*ny)
		at := func(x, y, z int) int {
			return ((z+nz)%nz)*nx*ny + ((y+ny)%ny)*nx + (x+nx)%nx
		}
		neighbors := [6]int{
			at(ix-1, iy, iz), at(ix+1, iy, iz),
			at(ix, iy-1, iz), at(ix, iy+1, iz),
			at(ix, iy, iz-1), at(ix, iy, iz+1),
		}
		perRank := float64(mgCells/P) * p.work()

		// Streaming stencil smoother: bandwidth-bound, almost branchless.
		smooth := func(level int) perfmodel.Kernel {
			f := perRank / float64(int64(1)<<uint(3*level))
			k := scaleKernel(perfmodel.Kernel{
				FPOps: 8, IntOps: 2, Loads: 7, Stores: 1, Branches: 3,
			}, f)
			k.MissLines = int64(f / 8)
			return k
		}
		faceBytes := func(level int) int {
			n := 8 * 262144 >> uint(2*level)
			if n < 64 {
				n = 64
			}
			return n
		}
		exchange := func(level int) {
			for dim := 0; dim < 3; dim++ {
				r.Sendrecv(c, neighbors[2*dim+1], 40+level, faceBytes(level), neighbors[2*dim], 40+level)
				r.Sendrecv(c, neighbors[2*dim], 50+level, faceBytes(level), neighbors[2*dim+1], 50+level)
			}
		}

		for it := 0; it < iters; it++ {
			// V-cycle: restrict down, then prolongate up.
			for level := 0; level < levels; level++ {
				r.Compute(smooth(level))
				exchange(level)
			}
			for level := levels - 1; level >= 0; level-- {
				exchange(level)
				r.Compute(smooth(level))
			}
			r.Allreduce(c, 8, mpi.OpMax) // residual norm
		}
	}, nil
}

// --- IS ---------------------------------------------------------------

func buildIS(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("IS")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	iters := p.iters(spec.DefaultIters)
	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		perRank := float64(isKeys/P) * p.work()

		// Histogramming: integer ops with data-dependent branches and
		// scattered stores — the classic low-IPC integer kernel.
		histogram := scaleKernel(perfmodel.Kernel{
			IntOps: 4, Loads: 2, Stores: 1, Branches: 1,
		}, perRank)
		histogram.RandBranches = int64(perRank / 8)
		histogram.MissLines = int64(perRank / 10)
		rankKernel := scaleKernel(perfmodel.Kernel{
			IntOps: 2, Loads: 2, Stores: 1, Branches: 1,
		}, perRank/4)
		rankKernel.MissLines = int64(perRank / 40)

		// Deterministic mildly uneven key distribution.
		counts := make([]int, P)
		base := int(perRank) * 4 / P
		for peer := 0; peer < P; peer++ {
			counts[peer] = base + (peer%4)*base/16
		}

		for it := 0; it < iters; it++ {
			r.Compute(histogram)
			r.Allreduce(c, 1024, mpi.OpSum)                // bucket size exchange
			if err := r.Alltoallv(c, counts); err != nil { // key redistribution
				panic(err)
			}
			r.Compute(rankKernel)
		}
		r.Allreduce(c, 8, mpi.OpMax) // verification
	}, nil
}
