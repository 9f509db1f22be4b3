// Package extrapolate implements the enhancement the paper's conclusion
// identifies as future work: "a manually developed proxy-app can ... run
// with different parallel scales, while Siesta can only reproduce program
// behaviors from a certain execution path with fixed input and scale."
//
// For the class of programs where re-scaling is well-defined — fully SPMD
// programs whose per-rank behaviour is rank-count independent (stencils,
// halo rings, wavefronts with relative neighbours) — a merged Program can
// be re-targeted to a different rank count: the relative-rank encoding
// already expresses partners as offsets, the grammar is shared by all
// ranks, and collectives re-price themselves at the new scale. Programs
// whose structure depends on the rank count (butterfly exchanges over
// log₂P stages, per-rank-distinct computation, alltoallv shapes,
// communicator splits) are detected and rejected with a diagnostic, which
// is exactly the boundary ScalaExtrap-style systems draw.
//
// Semantics: extrapolation preserves each rank's behaviour exactly — a
// weak-scaling replication. For programs whose traced per-rank workload
// was itself a strong-scaled share of a fixed input (most of Table 3's
// programs), the extrapolated proxy models the same per-rank load at the
// new scale, not the original input divided across more ranks; only
// programs with scale-invariant per-rank work (stencil sweeps with fixed
// block sizes) extrapolate time-faithfully in both senses.
package extrapolate

import (
	"fmt"

	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// Extrapolate re-targets a merged program to newRanks processes. It returns
// a new Program; the input is not modified.
func Extrapolate(p *merge.Program, newRanks int) (*merge.Program, error) {
	if newRanks <= 0 {
		return nil, fmt.Errorf("extrapolate: rank count must be positive, got %d", newRanks)
	}
	if err := Check(p); err != nil {
		return nil, err
	}
	// Relative offsets were encoded modulo the *old* size: an offset of
	// P−1 means "the previous rank", not "P−1 ranks ahead". Decode to the
	// canonical signed displacement in (−P/2, P/2], then re-encode at the
	// new size — this is what keeps a ±1 halo ring a ±1 halo ring.
	oldP := p.NumRanks
	reencode := func(rel int) (int, error) {
		if rel == trace.NoRank || rel == trace.Wildcard {
			return rel, nil
		}
		s := rel
		if s > oldP/2 {
			s -= oldP
		}
		if s > newRanks/2 || -s > (newRanks-1)/2 {
			return 0, fmt.Errorf("displacement %+d does not fit %d ranks", s, newRanks)
		}
		return ((s % newRanks) + newRanks) % newRanks, nil
	}

	out := *p
	out.NumRanks = newRanks
	out.Terminals = make([]*trace.Record, len(p.Terminals))
	for id, r := range p.Terminals {
		c := r.Clone()
		var err error
		if c.DestRel, err = reencode(r.DestRel); err != nil {
			return nil, fmt.Errorf("extrapolate: terminal %d (%s): %v", id, r.Func, err)
		}
		if c.SrcRel, err = reencode(r.SrcRel); err != nil {
			return nil, fmt.Errorf("extrapolate: terminal %d (%s): %v", id, r.Func, err)
		}
		out.Terminals[id] = c
	}

	all := rankset.Range(0, newRanks)
	main := p.Mains[0]
	nm := merge.Main{Ranks: all, Body: make([]merge.MainSym, len(main.Body))}
	for i, ms := range main.Body {
		nm.Body[i] = merge.MainSym{Sym: ms.Sym, Ranks: all}
	}
	out.Mains = []merge.Main{nm}
	out.MergeRounds = log2ceil(newRanks)
	return &out, nil
}

// Check reports whether a program is eligible for rank extrapolation,
// returning a diagnostic error when it is not.
func Check(p *merge.Program) error {
	if len(p.Mains) != 1 {
		return fmt.Errorf("extrapolate: program has %d main-rule groups; only fully SPMD programs (one group) can be re-scaled", len(p.Mains))
	}
	main := &p.Mains[0]
	if main.Ranks.Len() != p.NumRanks {
		return fmt.Errorf("extrapolate: main group covers %d of %d ranks", main.Ranks.Len(), p.NumRanks)
	}
	for i, ms := range main.Body {
		if !ms.Ranks.Equal(main.Ranks) {
			return fmt.Errorf("extrapolate: main symbol %d is executed by %s, not by all ranks — rank-dependent control flow cannot be re-scaled", i, ms.Ranks)
		}
	}
	for id, r := range p.Terminals {
		switch r.Func {
		case mpicall.CommSplit:
			return fmt.Errorf("extrapolate: terminal %d uses MPI_Comm_split; sub-communicator shapes are rank-count dependent", id)
		case mpicall.Alltoallv:
			return fmt.Errorf("extrapolate: terminal %d uses MPI_Alltoallv; its per-destination counts are shaped by the rank count", id)
		}
		if r.CommPool != 0 && !r.IsCompute() && !isDupFamily(r, p) {
			return fmt.Errorf("extrapolate: terminal %d communicates on pool comm %d; only MPI_COMM_WORLD and its duplicates re-scale", id, r.CommPool)
		}
	}
	return nil
}

// isDupFamily reports whether the record's communicator pool id was created
// exclusively by MPI_Comm_dup (whose group always mirrors its parent and
// therefore re-scales trivially).
func isDupFamily(r *trace.Record, p *merge.Program) bool {
	for _, t := range p.Terminals {
		if t.NewCommPool == r.CommPool {
			if t.Func != mpicall.CommDup {
				return false
			}
		}
	}
	return true
}

func log2ceil(n int) int {
	steps := 0
	for v := 1; v < n; v <<= 1 {
		steps++
	}
	return steps
}
