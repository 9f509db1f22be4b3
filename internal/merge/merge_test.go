package merge

import (
	"slices"
	"strings"
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/rankset"
	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// ringTrace records a symmetric SPMD ring app.
func ringTrace(t *testing.T, size, iters int) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(size, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: size, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		for it := 0; it < iters; it++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e6, Loads: 4e5, Stores: 2e5, Branches: 1e5})
			r.Sendrecv(c, next, 0, 2048, prev, 0)
			r.Allreduce(c, 8, mpi.OpSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

// masterWorkerTrace records an asymmetric app: rank 0 behaves differently.
func masterWorkerTrace(t *testing.T, size, iters int) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(size, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: size, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		for it := 0; it < iters; it++ {
			if r.Rank() == 0 {
				for src := 1; src < r.Size(); src++ {
					r.Recv(c, src, 1)
				}
				r.Bcast(c, 0, 64)
			} else {
				r.Compute(perfmodel.Kernel{FPOps: 2e6, Loads: 1e6, Stores: 5e5, Branches: 2e5})
				r.Send(c, 0, 1, 512)
				r.Bcast(c, 0, 64)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

func TestGlobalizeDeduplicatesAcrossRanks(t *testing.T) {
	tr := ringTrace(t, 8, 4)
	g := GlobalizeParallel(tr, 0.05, 1)
	// The symmetric ring shares all terminals: the global table should be
	// no bigger than one rank's local table.
	if len(g.Terminals) > len(tr.Ranks[0].Table) {
		t.Errorf("global table has %d records; rank 0 alone has %d — dedup failed",
			len(g.Terminals), len(tr.Ranks[0].Table))
	}
	if len(g.Seqs) != 8 {
		t.Fatal("one sequence per rank expected")
	}
	for rank, seq := range g.Seqs {
		if len(seq) != len(tr.Ranks[rank].Events) {
			t.Errorf("rank %d sequence length changed", rank)
		}
		for _, id := range seq {
			if id < 0 || id >= len(g.Terminals) {
				t.Fatalf("rank %d references missing terminal %d", rank, id)
			}
		}
	}
}

func TestGlobalizeMergesComputeClusters(t *testing.T) {
	tr := ringTrace(t, 8, 4)
	g := GlobalizeParallel(tr, 0.05, 1)
	// All ranks run the same kernel without noise: exactly one cluster.
	if len(g.Clusters) != 1 {
		t.Fatalf("got %d global clusters, want 1", len(g.Clusters))
	}
	if g.Clusters[0].N != 8*4 {
		t.Errorf("cluster population %d, want 32", g.Clusters[0].N)
	}
}

func TestBuildLosslessSPMD(t *testing.T) {
	tr := ringTrace(t, 8, 6)
	p, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build self-checks expansion; re-verify independently here.
	g := GlobalizeParallel(tr, 0.05, 1)
	for rank := range g.Seqs {
		got, err := p.ExpandRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, g.Seqs[rank]) {
			t.Fatalf("rank %d expansion mismatch", rank)
		}
	}
}

func TestBuildSPMDMergesToOneMain(t *testing.T) {
	tr := ringTrace(t, 8, 6)
	p, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mains) != 1 {
		t.Fatalf("symmetric SPMD app should merge to 1 main group, got %d", len(p.Mains))
	}
	if p.Mains[0].Ranks.Len() != 8 {
		t.Errorf("main group covers %d ranks, want 8", p.Mains[0].Ranks.Len())
	}
	// Every symbol should be executed by all ranks (fully symmetric app).
	for i, ms := range p.Mains[0].Body {
		if ms.Ranks.Len() != 8 {
			t.Errorf("symbol %d executed by %s, want all ranks", i, ms.Ranks)
		}
	}
}

func TestBuildMasterWorkerLossless(t *testing.T) {
	tr := masterWorkerTrace(t, 6, 5)
	p, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := GlobalizeParallel(tr, 0.05, 1)
	for rank := range g.Seqs {
		got, err := p.ExpandRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, g.Seqs[rank]) {
			t.Fatalf("rank %d expansion mismatch", rank)
		}
	}
	// Note: workers 1..5 all send to rank 0 *absolutely*, so after
	// relative-rank encoding their send terminals differ per rank and the
	// paper's merging scheme cannot collapse them (relative ranks are
	// designed for mesh neighbours, not hub topologies). Rank 0's main
	// must at least sit in its own group, apart from any worker.
	for _, m := range p.Mains {
		if m.Ranks.Contains(0) && m.Ranks.Len() != 1 {
			t.Errorf("master main merged with workers: %s", m.Ranks)
		}
	}
	if len(p.Mains) < 2 {
		t.Errorf("master and workers cannot share one main group")
	}
}

func TestBuildDisableMainMerge(t *testing.T) {
	tr := ringTrace(t, 4, 3)
	p, err := Build(tr, Options{DisableMainMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mains) != 4 {
		t.Fatalf("with merge disabled every rank keeps its main: got %d", len(p.Mains))
	}
	for rank := 0; rank < 4; rank++ {
		if _, err := p.ExpandRank(rank); err != nil {
			t.Fatal(err)
		}
	}
}

// The ablation programs run the losslessness self-check too: with main
// merging disabled, a lossless func that rejects rank 0 fails assemble.
func TestAssembleDisableMainMergeRunsSelfCheck(t *testing.T) {
	terminals := []*trace.Record{sendRec(8), sendRec(16)}
	grammars := []*sequitur.Grammar{infer([]int{0, 1, 0, 1}, Options{}), infer([]int{1, 0}, Options{})}
	rejectRank0 := func(rank int, got []int) bool { return rank != 0 }
	opts := Options{DisableMainMerge: true}.withDefaults()
	_, err := assemble(2, "A", "openmpi", terminals, nil, grammars, []int{0, 1}, rejectRank0, opts)
	if err == nil || !strings.Contains(err.Error(), "rank 0 expansion") {
		t.Fatalf("assemble with DisableMainMerge: err = %v, want rank 0 to fail the self-check", err)
	}
}

func TestMergedSmallerThanUnmerged(t *testing.T) {
	tr := ringTrace(t, 16, 10)
	merged, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unmerged, err := Build(tr, Options{DisableMainMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Encode()) >= len(unmerged.Encode()) {
		t.Errorf("LCS merge should shrink the program: %d vs %d bytes",
			len(merged.Encode()), len(unmerged.Encode()))
	}
}

func TestSizeCSublinearInRanks(t *testing.T) {
	small, err := Build(ringTrace(t, 4, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(ringTrace(t, 32, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sSmall, sBig := len(small.Encode()), len(big.Encode())
	if float64(sBig) > 3*float64(sSmall) {
		t.Errorf("8× ranks should not grow size_C 8×: %d vs %d bytes", sSmall, sBig)
	}
}

func TestCompressionVsRawTrace(t *testing.T) {
	tr := ringTrace(t, 8, 50)
	p, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := tr.RawSize()
	sizeC := len(p.Encode())
	if sizeC*10 > raw {
		t.Errorf("size_C (%d) should be well under raw trace size (%d)", sizeC, raw)
	}
}

func TestStats(t *testing.T) {
	p, err := Build(ringTrace(t, 4, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Terminals == 0 || s.MainGroups != 1 || s.EncodedBytes == 0 {
		t.Errorf("stats look wrong: %+v", s)
	}
	if s.Clusters != len(p.Clusters) {
		t.Error("cluster count mismatch")
	}
}

func TestExpandRankErrors(t *testing.T) {
	p := &Program{NumRanks: 2}
	if _, err := p.ExpandRank(0); err == nil {
		t.Fatal("missing main should error")
	}
	p.Mains = []Main{{Ranks: rankset.Single(0), Body: []MainSym{
		{Sym: Sym{Ref: 5, IsRule: true, Count: 1}, Ranks: rankset.Single(0)},
	}}}
	if _, err := p.ExpandRank(0); err == nil {
		t.Fatal("dangling rule ref should error")
	}
}

func TestEditDistance(t *testing.T) {
	a := []Sym{{Ref: 1, Count: 1}, {Ref: 2, Count: 1}, {Ref: 3, Count: 1}}
	b := []Sym{{Ref: 1, Count: 1}, {Ref: 9, Count: 1}, {Ref: 3, Count: 1}}
	if d := editDistance(a, a); d != 0 {
		t.Errorf("self distance %d", d)
	}
	if d := editDistance(a, b); d != 1 {
		t.Errorf("distance %d, want 1", d)
	}
	if d := editDistance(a, nil); d != 3 {
		t.Errorf("distance to empty %d, want 3", d)
	}
	// Count participates in identity.
	c := []Sym{{Ref: 1, Count: 2}, {Ref: 2, Count: 1}, {Ref: 3, Count: 1}}
	if d := editDistance(a, c); d != 1 {
		t.Errorf("count-differing distance %d, want 1", d)
	}
}

func TestLCSMergePaperExample(t *testing.T) {
	// Two mains sharing a common subsequence; off-LCS symbols keep their
	// own rank lists in original order (paper Fig. 3).
	a := Main{Ranks: rankset.Single(0), Body: []MainSym{
		{Sym: Sym{Ref: 1, Count: 1}, Ranks: rankset.Single(0)},
		{Sym: Sym{Ref: 2, Count: 1}, Ranks: rankset.Single(0)},
		{Sym: Sym{Ref: 3, Count: 1}, Ranks: rankset.Single(0)},
	}}
	b := Main{Ranks: rankset.Single(1), Body: []MainSym{
		{Sym: Sym{Ref: 1, Count: 1}, Ranks: rankset.Single(1)},
		{Sym: Sym{Ref: 4, Count: 1}, Ranks: rankset.Single(1)},
		{Sym: Sym{Ref: 3, Count: 1}, Ranks: rankset.Single(1)},
	}}
	m := lcsMerge(a, b)
	if len(m.Body) != 4 {
		t.Fatalf("merged body has %d symbols, want 4", len(m.Body))
	}
	if !m.Body[0].Ranks.Equal(rankset.New(0, 1)) {
		t.Error("shared head should carry both ranks")
	}
	if !m.Body[3].Ranks.Equal(rankset.New(0, 1)) {
		t.Error("shared tail should carry both ranks")
	}
	// Per-rank projections preserve order.
	project := func(rank int) []int {
		var out []int
		for _, ms := range m.Body {
			if ms.Ranks.Contains(rank) {
				out = append(out, ms.Sym.Ref)
			}
		}
		return out
	}
	if got := project(0); !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("rank 0 projection %v", got)
	}
	if got := project(1); !slices.Equal(got, []int{1, 4, 3}) {
		t.Errorf("rank 1 projection %v", got)
	}
}

func TestSimilarThreshold(t *testing.T) {
	a := []Sym{{Ref: 1, Count: 1}, {Ref: 2, Count: 1}, {Ref: 3, Count: 1}, {Ref: 4, Count: 1}}
	b := []Sym{{Ref: 1, Count: 1}, {Ref: 2, Count: 1}, {Ref: 3, Count: 1}, {Ref: 9, Count: 1}}
	if !similar(a, b, 0.3) {
		t.Error("25% distance should pass a 30% threshold")
	}
	c := []Sym{{Ref: 9, Count: 1}, {Ref: 8, Count: 1}, {Ref: 7, Count: 1}, {Ref: 6, Count: 1}}
	if similar(a, c, 0.3) {
		t.Error("fully different mains should not cluster")
	}
	if !similar(nil, nil, 0.3) {
		t.Error("two empty mains are similar")
	}
}

func TestRunLengthAblation(t *testing.T) {
	tr := ringTrace(t, 4, 200)
	withRLE, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withoutRLE, err := Build(tr, Options{DisableRunLength: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withRLE.Encode()) >= len(withoutRLE.Encode()) {
		t.Errorf("run-length should shrink periodic traces: %d vs %d",
			len(withRLE.Encode()), len(withoutRLE.Encode()))
	}
}
