package apps

import (
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
)

// luleshElems is the scaled-down total element count (the paper's
// introduction motivates Siesta with LULESH traces of "hundreds of
// gigabytes" below 1,000 processors).
const luleshElems = 60_000_000

func init() {
	register(&Spec{
		Name:         "LULESH",
		Description:  "LLNL LULESH shock-hydro proxy: cubic process grid with 26-neighbour halo exchanges (faces/edges/corners) and per-step dt reductions",
		DefaultIters: 10,
		ValidRanks:   isCube,
		Build:        buildLULESH,
	})
}

// isCube reports whether p is a perfect cube (LULESH's requirement).
func isCube(p int) bool {
	r := 0
	for (r+1)*(r+1)*(r+1) <= p {
		r++
	}
	return r*r*r == p
}

func intCbrt(p int) int {
	r := 0
	for (r+1)*(r+1)*(r+1) <= p {
		r++
	}
	return r
}

// buildLULESH models LULESH's communication structure: a d×d×d process
// cube; per iteration a Lagrangian leapfrog of two compute phases
// (CalcForceForNodes, CalcTimeConstraints-style), a 26-neighbour
// guard-exchange with face/edge/corner message sizes, and an allreduce for
// the global time-step. The trace is long and highly periodic — exactly the
// structure the paper's introduction cites as overwhelming raw tracers.
func buildLULESH(p Params) (func(*mpi.Rank), error) {
	spec, _ := ByName("LULESH")
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	iters := p.iters(spec.DefaultIters)
	return func(r *mpi.Rank) {
		c := r.World()
		P := r.Size()
		d := intCbrt(P)
		me := r.Rank()
		ix, iy, iz := me%d, (me/d)%d, me/(d*d)

		perRank := float64(luleshElems/P) * p.work()
		side := intSqrt(int(perRank)) // elements per face edge, roughly

		// Force calculation: FP-dense with EOS divisions, well predicted.
		force := scaleKernel(perfmodel.Kernel{
			FPOps: 45, IntOps: 8, Loads: 18, Stores: 6, Branches: 10,
		}, perRank/10)
		force.DivOps = int64(perRank / 70)
		force.MissLines = int64(perRank / 60)
		// Position/velocity update: streaming, branch-light.
		update := scaleKernel(perfmodel.Kernel{
			FPOps: 12, IntOps: 3, Loads: 8, Stores: 4, Branches: 3,
		}, perRank/12)
		update.MissLines = int64(perRank / 90)
		// Constraint calculation: data-dependent courant/hydro branches.
		constraint := scaleKernel(perfmodel.Kernel{
			FPOps: 6, IntOps: 2, Loads: 4, Stores: 1, Branches: 2,
		}, perRank/40)
		constraint.RandBranches = int64(perRank / 900)
		constraint.DivOps = int64(perRank / 600)

		// The 26-neighbour stencil, without periodic wrap (LULESH domains
		// have real boundaries): offsets grouped by dimensionality.
		neighbor := func(dx, dy, dz int) int {
			nx, ny, nz := ix+dx, iy+dy, iz+dz
			if nx < 0 || nx >= d || ny < 0 || ny >= d || nz < 0 || nz >= d {
				return mpi.ProcNull
			}
			return nz*d*d + ny*d + nx
		}
		faceBytes := 8 * side * 4
		edgeBytes := 8 * intSqrt(side) * 16
		cornerBytes := 8 * 8

		var reqs []mpi.Req // reused by every exchange
		exchange := func(tag int) {
			reqs = reqs[:0]
			post := func(dx, dy, dz, bytes int) {
				nb := neighbor(dx, dy, dz)
				if nb == mpi.ProcNull {
					return
				}
				reqs = append(reqs, r.Irecv(c, nb, tag))
				reqs = append(reqs, r.Isend(c, nb, tag, bytes))
			}
			// 6 faces.
			post(-1, 0, 0, faceBytes)
			post(+1, 0, 0, faceBytes)
			post(0, -1, 0, faceBytes)
			post(0, +1, 0, faceBytes)
			post(0, 0, -1, faceBytes)
			post(0, 0, +1, faceBytes)
			// 12 edges.
			for _, e := range [][3]int{
				{-1, -1, 0}, {-1, +1, 0}, {+1, -1, 0}, {+1, +1, 0},
				{-1, 0, -1}, {-1, 0, +1}, {+1, 0, -1}, {+1, 0, +1},
				{0, -1, -1}, {0, -1, +1}, {0, +1, -1}, {0, +1, +1},
			} {
				post(e[0], e[1], e[2], edgeBytes)
			}
			// 8 corners.
			for _, dx := range []int{-1, +1} {
				for _, dy := range []int{-1, +1} {
					for _, dz := range []int{-1, +1} {
						post(dx, dy, dz, cornerBytes)
					}
				}
			}
			r.Waitall(reqs)
		}

		for it := 0; it < iters; it++ {
			// LagrangeNodal: force calculation + nodal halo exchange.
			r.Compute(force)
			exchange(90)
			r.Compute(update)
			// LagrangeElements: element halo exchange + constraints.
			exchange(91)
			r.Compute(constraint)
			// Global dt.
			r.Allreduce(c, 8, mpi.OpMin)
		}
		r.Reduce(c, 0, 64, mpi.OpSum) // final energy diagnostic
	}, nil
}
