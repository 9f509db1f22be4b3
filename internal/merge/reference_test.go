package merge

import (
	"fmt"
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
// the tree reduction and assemble's helpers (convertBody, similar,
// lcsMerge, ...) are shared; assemble itself is frozen below as
// refAssemble.

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

	return refAssemble(tr.NumRanks, tr.Platform, tr.Impl,
		glob.Terminals, glob.Clusters, grammars,
		func(rank int, got []int) bool { return slices.Equal(got, glob.Seqs[rank]) }, opts)
}

// refAssemble is assemble as it stood before batch Build shared one
// inference per rank class, copied verbatim: every rank runs the depth
// merge, converts its main rule and scans the main-rule groups itself.
// refBuild calls it, so the class-member shortcuts in assemble are judged
// against the old back half, not against themselves.
func refAssemble(numRanks int, platformName, implName string,
	terminals []*trace.Record, clusters []*trace.Cluster,
	grammars []*sequitur.Grammar, lossless func(rank int, got []int) bool,
	opts Options) (*Program, error) {

	par := opts.Parallelism
	p := &Program{
		NumRanks:    numRanks,
		Platform:    platformName,
		Impl:        implName,
		Terminals:   terminals,
		Clusters:    clusters,
		MergeRounds: log2ceil(numRanks),
	}

	depths := make([][]int, len(grammars))
	parfor(len(grammars), par, func(rank int) {
		depths[rank] = grammars[rank].Depths()
	})

	// Depth-ordered non-terminal merge (§2.6.2): identical rule bodies
	// across ranks collapse; shallow rules first so deeper signatures can
	// reference merged ids.
	sigIndex := map[string]int{}
	ruleMap := make([]map[int]int, len(grammars)) // rank -> local rule -> merged id
	maxDepth := 0
	for rank, g := range grammars {
		for i := 1; i < len(g.Rules); i++ {
			if depths[rank][i] > maxDepth {
				maxDepth = depths[rank][i]
			}
		}
		ruleMap[rank] = map[int]int{}
	}
	type levelRule struct {
		rank, li int
		body     []Sym
		sig      string
	}
	var todo []levelRule
	for level := 1; level <= maxDepth; level++ {
		todo = todo[:0]
		for rank, g := range grammars {
			for li := 1; li < len(g.Rules); li++ {
				if depths[rank][li] == level {
					todo = append(todo, levelRule{rank: rank, li: li})
				}
			}
		}
		// A rule at this level only references rules of strictly lower
		// depth, which are already in ruleMap — so body conversion and
		// signature hashing parallelize freely; interning then stays serial
		// in (rank, rule) order so merged rule ids come out identical to the
		// sequential pass. Items are sub-microsecond, so small levels stay
		// serial (parforSerialCutoff).
		parforCheap(len(todo), par, func(k int) {
			t := &todo[k]
			t.body = convertBody(grammars[t.rank].Rules[t.li], ruleMap[t.rank])
			t.sig = signature(t.body)
		})
		for k := range todo {
			t := &todo[k]
			id, ok := sigIndex[t.sig]
			if !ok {
				id = len(p.Rules)
				p.Rules = append(p.Rules, t.body)
				sigIndex[t.sig] = id
			}
			ruleMap[t.rank][t.li] = id
		}
	}

	// Main rules: convert, cluster by edit distance, merge by LCS.
	mains := make([][]Sym, len(grammars))
	parfor(len(grammars), par, func(rank int) {
		mains[rank] = convertBody(grammars[rank].Rules[0], ruleMap[rank])
	})
	if opts.DisableMainMerge {
		for rank, body := range mains {
			p.Mains = append(p.Mains, singleRankMain(rank, body))
		}
		return p, nil
	}

	type group struct {
		rep    []Sym
		merged Main
	}
	var groups []*group
	for rank, body := range mains {
		// A rank joins the lowest-indexed similar group (= the sequential
		// first match). The similarity checks against existing groups are
		// independent — each reads only the group's fixed representative —
		// so they parallelize; only the LCS fold into the group is ordered.
		// Dispatch is only worth it when the edit-distance DP brings real
		// work: below ~2^16 total cells the checks finish faster than the
		// workers spawn (measured; see DESIGN.md §14).
		cells := len(body) * len(body) * len(groups)
		placed := -1
		if par <= 1 || len(groups) < 2 || cells < similarParCutoffCells {
			for gi, gr := range groups {
				if similar(gr.rep, body, opts.MainSimilarity) {
					placed = gi
					break
				}
			}
		} else {
			match := make([]bool, len(groups))
			parfor(len(groups), par, func(gi int) {
				match[gi] = similar(groups[gi].rep, body, opts.MainSimilarity)
			})
			for gi := range match {
				if match[gi] {
					placed = gi
					break
				}
			}
		}
		if placed >= 0 {
			gr := groups[placed]
			gr.merged = lcsMerge(gr.merged, singleRankMain(rank, body))
		} else {
			groups = append(groups, &group{rep: body, merged: singleRankMain(rank, body)})
		}
	}
	for _, gr := range groups {
		p.Mains = append(p.Mains, gr.merged)
	}

	// Losslessness self-check: every rank's expansion must reproduce its
	// reference sequence exactly. Expansion only reads the finished
	// program, so ranks check concurrently; the lowest failing rank is
	// reported, as in the sequential pass.
	expandErrs := make([]error, len(grammars))
	parfor(len(grammars), par, func(rank int) {
		got, err := p.ExpandRank(rank)
		if err != nil {
			expandErrs[rank] = err
			return
		}
		if !lossless(rank, got) {
			expandErrs[rank] = fmt.Errorf("merge: rank %d expansion (%d events) diverges from trace",
				rank, len(got))
		}
	})
	for _, err := range expandErrs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}
