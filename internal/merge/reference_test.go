package merge

import (
	"slices"

	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// This file freezes the batch merge front end as it stood before Build
// became a one-chunk-per-rank Ingest: each rank's tables interned by
// refLeafPartial, the pairwise tree reduction, every rank's events
// rewritten onto the root tables, Sequitur inference over those global
// ids, and assemble checking each rank against its globalized sequence.
// Build no longer runs any of it, so the differential tests
// (differential_test.go) and the streamed = batch tests (ingest_test.go)
// compare against it as an independent reference. Do not optimise or
// otherwise edit this copy: its value is that it is the old code. Only
// the tree reduction and assemble are shared, as they always were.

// refLeafPartial globalizes a single rank: local clusters and records are
// interned through the same match-or-append path the inner tree nodes use,
// so one rank's clusters can still collapse when the merge threshold is
// coarser than the tracing threshold.
func refLeafPartial(rt *trace.RankTrace, th float64) *partial {
	p := newPartial(th)
	clusterMap := trace.GetInts(len(rt.Clusters))
	for li, lc := range rt.Clusters {
		cp := *lc
		clusterMap.S[li] = p.addCluster(&cp, th)
	}
	recMap := trace.GetInts(len(rt.Table))
	for li, r := range rt.Table {
		gr := r.Clone()
		if gr.IsCompute() {
			gr.ComputeCluster = clusterMap.S[gr.ComputeCluster]
		}
		recMap.S[li] = p.addRecord(gr, gr.KeyString())
	}
	clusterMap.Unref()
	p.recMaps[rt.Rank] = recMap
	return p
}

// refGlobalize is the old GlobalizeParallel over refLeafPartial leaves.
func refGlobalize(tr *trace.Trace, clusterThreshold float64, parallelism int) *Globalized {
	numRanks := len(tr.Ranks)
	g := &Globalized{Seqs: make([][]int, numRanks)}
	if numRanks == 0 {
		return g
	}

	parts := make([]*partial, numRanks)
	parfor(numRanks, parallelism, func(i int) {
		parts[i] = refLeafPartial(tr.Ranks[i], clusterThreshold)
	})

	root := reducePartials(parts, clusterThreshold, parallelism)
	g.Terminals = root.records
	g.Clusters = root.clusters
	g.seqBufs = make([]*trace.IntBuf, numRanks)
	parfor(numRanks, parallelism, func(i int) {
		rt := tr.Ranks[i]
		rm := root.recMaps[rt.Rank]
		seq := trace.GetInts(len(rt.Events))
		for j, id := range rt.Events {
			seq.S[j] = rm.S[id]
		}
		g.seqBufs[rt.Rank] = seq
		g.Seqs[rt.Rank] = seq.S
	})
	for _, rm := range root.recMaps {
		rm.Unref()
	}
	root.recMaps = nil
	return g
}

// refBuild is the old batch Build: globalize, infer per-rank grammars over
// global ids, assemble.
func refBuild(tr *trace.Trace, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	par := opts.Parallelism
	glob := refGlobalize(tr, opts.ClusterThreshold, par)
	defer glob.Release()

	grammars := make([]*sequitur.Grammar, len(glob.Seqs))
	parfor(len(glob.Seqs), par, func(rank int) {
		b := sequitur.NewWithOptions(!opts.DisableRunLength)
		b.AppendAll(glob.Seqs[rank])
		grammars[rank] = b.Grammar()
	})

	return assemble(tr.NumRanks, tr.Platform, tr.Impl,
		glob.Terminals, glob.Clusters, grammars,
		func(rank int, got []int) bool { return slices.Equal(got, glob.Seqs[rank]) }, opts)
}
