package apps

import (
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
)

// Scaled-down FLASH volume (the paper runs 64³ on all three problems).
const flashCells = 120_000_000

func init() {
	register(&Spec{
		Name:         "Sedov",
		Description:  "FLASH Sedov blast wave: AMR hydrodynamics with activity concentrated around the blast centre",
		DefaultIters: 12,
		ValidRanks:   func(p int) bool { return p >= 2 },
		Build: func(p Params) (func(*mpi.Rank), error) {
			return buildFlash(p, "Sedov")
		},
	})
	register(&Spec{
		Name:         "Sod",
		Description:  "FLASH Sod shock tube: quasi-1D hydrodynamics with sparse communication and the smallest traces",
		DefaultIters: 10,
		ValidRanks:   func(p int) bool { return p >= 2 },
		Build: func(p Params) (func(*mpi.Rank), error) {
			return buildFlash(p, "Sod")
		},
	})
	register(&Spec{
		Name:         "StirTurb",
		Description:  "FLASH stirred turbulence: uniform load with per-step forcing reductions and drifting computation profiles",
		DefaultIters: 14,
		ValidRanks:   func(p int) bool { return p >= 2 },
		Build: func(p Params) (func(*mpi.Rank), error) {
			return buildFlash(p, "StirTurb")
		},
	})
}

// buildFlash models the shared FLASH execution skeleton — duplicate the
// world communicator, then per step: guard-cell exchange over the block
// neighbour lists, hydro kernel, dt reduction, and periodic regridding —
// with the per-problem character the paper's Table 3 reflects:
//
//   - Sedov: per-rank load varies with distance from the blast centre, so
//     computation clusters differ across ranks;
//   - Sod: quasi-1D — only ±1 neighbours, few events, tiny traces;
//   - StirTurb: extra forcing reductions and a hydro profile that drifts
//     over time, producing many computation clusters (and the paper's
//     largest FLASH errors).
func buildFlash(p Params, problem string) (func(*mpi.Rank), error) {
	spec, _ := ByName(problem)
	if err := validateRanks(spec, p); err != nil {
		return nil, err
	}
	steps := p.iters(spec.DefaultIters)
	const regridEvery = 5
	return func(r *mpi.Rank) {
		world := r.World()
		c := r.CommDup(world) // FLASH communicates on a duplicated comm
		P := r.Size()
		me := r.Rank()
		perRank := float64(flashCells/P) * p.work()

		// Hydro kernel: mixed FP with equation-of-state divisions.
		hydroBase := scaleKernel(perfmodel.Kernel{
			FPOps: 24, IntOps: 6, Loads: 12, Stores: 4, Branches: 7,
		}, perRank/10)
		hydroBase.DivOps = int64(perRank / 90)
		hydroBase.MissLines = int64(perRank / 40)
		hydroBase.RandBranches = int64(perRank / 800)

		// Per-problem load shaping.
		loadFactor := 1.0
		var neighbors []int
		switch problem {
		case "Sedov":
			// Blast centre sits at the middle rank; nearby ranks refine
			// harder and carry more cells.
			centre := P / 2
			dist := me - centre
			if dist < 0 {
				dist = -dist
			}
			loadFactor = 1.0 + 1.5/float64(1+dist)
			neighbors = flashNeighbors(me, P, 3)
		case "Sod":
			loadFactor = 1.0
			neighbors = flashNeighbors(me, P, 1) // quasi-1D: ±1 only
		case "StirTurb":
			loadFactor = 1.0
			neighbors = flashNeighbors(me, P, 2)
		}

		guardBytes := 6 * 8 * 40960

		reqs := make([]mpi.Req, 0, 2*len(neighbors))
		for step := 0; step < steps; step++ {
			// Guard-cell fill: exchange with the block neighbour list.
			reqs = reqs[:0]
			for _, nb := range neighbors {
				reqs = append(reqs, r.Irecv(c, nb, 70))
			}
			for _, nb := range neighbors {
				reqs = append(reqs, r.Isend(c, nb, 70, guardBytes))
			}
			r.Waitall(reqs)

			// Hydro step; StirTurb's profile drifts with time as the
			// turbulence develops.
			k := hydroBase
			f := loadFactor
			if problem == "StirTurb" {
				f *= 1.0 + 0.12*float64(step%4)
			}
			if f != 1.0 {
				k = scaleKernel(hydroBase, f)
			}
			r.Compute(k)

			// Global dt.
			r.Allreduce(c, 8, mpi.OpMin)
			if problem == "StirTurb" {
				// Forcing-term statistics.
				r.Allreduce(c, 64, mpi.OpSum)
			}

			// Periodic regrid: refinement pattern exchange plus block
			// redistribution with a ring shift.
			if step%regridEvery == regridEvery-1 {
				r.Allgather(c, 32)
				r.Compute(scaleKernel(hydroBase, 0.2))
				next := (me + 1) % P
				prev := (me - 1 + P) % P
				r.Sendrecv(c, next, 80, guardBytes/2, prev, 80)
			}
		}
		r.Reduce(c, 0, 128, mpi.OpSum) // final diagnostics to rank 0
		r.CommFree(c)
	}, nil
}

// flashNeighbors builds the symmetric ±1..±width ring neighbourhood — the
// 1D block ordering FLASH's space-filling curve induces at this scale.
func flashNeighbors(me, p, width int) []int {
	var out []int
	for d := 1; d <= width; d++ {
		out = append(out, (me+d)%p)
		if p > 2*d || (me-d+p)%p != (me+d)%p {
			out = append(out, (me-d+p)%p)
		}
	}
	return out
}
