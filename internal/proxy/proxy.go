// Package proxy executes generated proxy-apps on the simulated MPI runtime.
// It is the in-simulation equivalent of compiling and running the generated
// C program: the merged grammar is walked per rank, communication terminals
// replay the recorded MPI calls (with pool-renamed handles and decoded
// relative ranks), and computation terminals replay their searched block
// combinations — or recorded sleep times, or nothing, for the ablation and
// baseline modes.
package proxy

import (
	"fmt"

	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// Mode selects how computation events are replayed.
type Mode int

const (
	// ComputeBlocks replays the searched block combinations (Siesta).
	ComputeBlocks Mode = iota
	// SleepReplay advances the clock by the recorded mean duration — the
	// platform-insensitive strategy of sleep-based generators.
	SleepReplay
	// NoCompute skips computation events entirely (communication-only
	// replay, as Pilgrim does).
	NoCompute
)

// App is a runnable proxy application.
type App struct {
	Gen  *codegen.Generated
	Mode Mode
}

// New returns a proxy app in ComputeBlocks mode.
func New(gen *codegen.Generated) *App { return &App{Gen: gen} }

// RankFunc returns the SPMD function that replays the proxy on each rank
// of one world. Divergence between the generated program and what the
// runtime can replay — a malformed grammar included — surfaces as a
// *DivergenceError panic, which mpi.World.Run absorbs into a wrapped error
// return (so errors.As still finds it).
//
// The function computes each cluster's block kernel once, for the platform
// of the first rank it runs, and its ranks share the table: a world runs
// one rank at a time and every rank has the world's platform. So each
// world needs its own RankFunc.
func (a *App) RankFunc() func(*mpi.Rank) {
	shared, sharedErr := merge.NewCursor(a.Gen.Prog)
	var kernels []perfmodel.Kernel
	return func(r *mpi.Rank) {
		if a.Mode == ComputeBlocks && kernels == nil {
			kernels = make([]perfmodel.Kernel, len(a.Gen.Combos))
			for i, combo := range a.Gen.Combos {
				kernels[i] = combo.Kernel(r.Platform())
			}
		}
		cur, err := shared, sharedErr
		if err == nil {
			cur = shared.Clone()
			err = cur.Reset(r.Rank())
		}
		if err != nil {
			panic(&DivergenceError{Rank: r.Rank(), Reason: err.Error()})
		}
		rp := NewReplayer(r.World())
		for cur.Next() {
			rec := a.Gen.Prog.Terminals[cur.Term()]
			if !rec.IsCompute() {
				if err := rp.ExecComm(r, rec); err != nil {
					panic(err)
				}
				continue
			}
			switch a.Mode {
			case ComputeBlocks:
				r.Compute(kernels[rec.ComputeCluster])
			case SleepReplay:
				r.Elapse(vtime.Duration(a.Gen.SleepTimes[rec.ComputeCluster]))
			case NoCompute:
			}
		}
	}
}

// Run executes the proxy in the given environment. The config's Size is
// forced to the program's rank count.
func (a *App) Run(cfg mpi.Config) (*mpi.RunResult, error) {
	cfg.Size = a.Gen.Prog.NumRanks
	w := mpi.NewWorld(cfg)
	res, err := w.Run(a.RankFunc())
	if err != nil {
		return nil, fmt.Errorf("proxy: replay failed: %w", err)
	}
	return res, nil
}

// ReportedTime converts a proxy execution time into the reported estimate:
// scaled proxies multiply back by the scaling factor (paper §3.4.1).
func (a *App) ReportedTime(res *mpi.RunResult) vtime.Duration {
	return vtime.Duration(float64(res.ExecTime) * a.Gen.Scale)
}
