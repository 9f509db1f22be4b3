package merge

import (
	"fmt"
	"slices"
	"strings"

	"siesta/internal/perfmodel"
	"siesta/internal/rankset"
	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// Options tunes the merge pipeline. The zero value gives the paper's
// defaults.
type Options struct {
	// DisableRunLength turns off the Sequitur run-length extension (for
	// the ablation benchmark).
	DisableRunLength bool
	// ClusterThreshold is the relative distance for merging computation
	// clusters across ranks; 0 selects 5% (matching the tracing default).
	ClusterThreshold float64
	// MainSimilarity is the maximum normalized edit distance between main
	// rules in one cluster (paper: "we first cluster the main rules into
	// several groups according to their minimum edit distance"); 0
	// selects 0.3.
	MainSimilarity float64
	// DisableMainMerge keeps every rank's main rule separate (ablation).
	DisableMainMerge bool

	// Spill bounds the resident memory of the per-rank terminal tables
	// (see Ingest; the high-water mark applies to each rank's table
	// separately): past the high-water mark, terminals spill to a temp
	// file that is re-read once at Build and removed at Close. Spilling
	// never changes a single output byte, so like Parallelism it is
	// excluded from the JSON encoding and therefore from
	// core.OptionsFingerprint.
	Spill trace.SpillConfig `json:"-"`

	// Parallelism bounds the worker count for the merge pipeline's
	// parallel stages: the tree-reduction globalize, per-rank grammar
	// inference and rule rewriting, and the losslessness check. It never
	// changes the output — parallel and sequential runs are byte-identical
	// — so it is excluded from the JSON encoding and therefore from
	// core.OptionsFingerprint. ≤ 1 runs sequentially.
	Parallelism int `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.ClusterThreshold == 0 {
		o.ClusterThreshold = 0.05
	}
	if o.MainSimilarity == 0 {
		o.MainSimilarity = 0.3
	}
	return o
}

// Globalized is a trace rewritten onto a single global symbol table: the
// output of the terminal-table merge (§2.6.1).
type Globalized struct {
	Terminals []*trace.Record
	Clusters  []*trace.Cluster
	Seqs      [][]int // per-rank event sequences over global terminal ids

	// seqBufs are the pooled buffers backing Seqs; see Release.
	seqBufs []*trace.IntBuf
}

// Release returns the pooled buffers backing Seqs to the shared buffer
// pool. After Release, Seqs must not be touched: the backing arrays may be
// handed to an unrelated caller. BenchmarkGlobalize releases each
// Globalized it times; callers that keep one alive (experiments, tests)
// simply never call Release and the buffers fall to the garbage collector
// instead — pooling is an optimization, never an obligation.
func (g *Globalized) Release() {
	for _, b := range g.seqBufs {
		b.Unref()
	}
	g.seqBufs = nil
	g.Seqs = nil
}

// clusterDist is the symmetric relative distance between two counter
// vectors: the worst per-metric difference relative to *either* vector
// (each denominator floored at 1). Symmetry matters: with the one-sided
// denominator this distance once used, whether two clusters merged could
// depend on which rank's representative was interned first, so the global
// cluster table depended on rank visitation order — exactly what the
// order-free tree reduction must not do.
func clusterDist(a, b perfmodel.Counters) float64 {
	var worst float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		den := a[i]
		if b[i] < den {
			den = b[i]
		}
		if den < 1 {
			den = 1
		}
		if r := d / den; r > worst {
			worst = r
		}
	}
	return worst
}

// Build runs the whole inter-process extraction: globalize terminals, infer
// per-rank grammars, merge non-terminals depth-first, cluster and LCS-merge
// main rules. It is a one-chunk-per-rank Ingest: each rank is fed in
// memory, then committed through Ingest.Build. All parallel stages
// assemble their results in rank order, so the output is byte-identical
// for every Options.Parallelism value.
func Build(tr *trace.Trace, opts Options) (*Program, error) {
	return batchIngest(tr, opts).Build()
}

// assemble is the merge pipeline's back half, run by Ingest.Build: given
// the globalized tables and one per-rank grammar over global terminal ids,
// it merges non-terminals depth-first, clusters and LCS-merges main rules,
// and runs the losslessness self-check: lossless(rank, got) reports
// whether got is the sequence rank's grammar is expected to expand to.
// rep maps each rank to its class representative (rep[r] ≤ r; see
// Ingest.rootClasses): a member's grammar is its representative's, so it
// takes the representative's depth-merge and main-rule results instead of
// recomputing them. opts must already carry defaults.
func assemble(numRanks int, platformName, implName string,
	terminals []*trace.Record, clusters []*trace.Cluster,
	grammars []*sequitur.Grammar, rep []int,
	lossless func(rank int, got []int) bool, opts Options) (*Program, error) {

	par := opts.Parallelism
	p := &Program{
		NumRanks:    numRanks,
		Platform:    platformName,
		Impl:        implName,
		Terminals:   terminals,
		Clusters:    clusters,
		MergeRounds: log2ceil(numRanks),
	}

	var reps []int
	for rank, c := range rep {
		if c == rank {
			reps = append(reps, rank)
		}
	}
	depths := make([][]int, len(grammars))
	parfor(len(reps), par, func(k int) {
		depths[reps[k]] = grammars[reps[k]].Depths()
	})

	// Depth-ordered non-terminal merge (§2.6.2): identical rule bodies
	// across ranks collapse; shallow rules first so deeper signatures can
	// reference merged ids. Only representatives intern: a member's rules,
	// level by level, hit exactly the signatures its lower-ranked
	// representative interned, so the member's map is the representative's.
	sigIndex := map[string]int{}
	ruleMap := make([]map[int]int, len(grammars)) // rank -> local rule -> merged id
	maxDepth := 0
	for _, rank := range reps {
		g := grammars[rank]
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
		for _, rank := range reps {
			g := grammars[rank]
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

	for rank, c := range rep {
		ruleMap[rank] = ruleMap[c]
	}

	// Main rules: convert, cluster by edit distance, merge by LCS.
	mains := make([][]Sym, len(grammars))
	parfor(len(reps), par, func(k int) {
		mains[reps[k]] = convertBody(grammars[reps[k]].Rules[0], ruleMap[reps[k]])
	})
	for rank, c := range rep {
		mains[rank] = mains[c]
	}
	if opts.DisableMainMerge {
		for rank, body := range mains {
			p.Mains = append(p.Mains, singleRankMain(rank, body))
		}
	} else {
		p.Mains = mergeMains(mains, rep, opts)
	}

	// Losslessness self-check: every rank's expansion must reproduce its
	// reference sequence exactly. Expansion only reads the finished
	// program, so ranks check concurrently; the lowest failing rank is
	// reported, as in the sequential pass.
	cur, err := NewCursor(p)
	if err != nil {
		return nil, err
	}
	expandErrs := make([]error, len(grammars))
	parfor(len(grammars), par, func(rank int) {
		c := cur.Clone()
		if err := c.Reset(rank); err != nil {
			expandErrs[rank] = err
			return
		}
		got := c.Append(make([]int, 0, c.Len()))
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

// mergeMains clusters the per-rank main bodies by edit distance and
// LCS-merges each cluster into one Main, in rank order (§2.6.2). A class
// member (rep[rank] != rank) has its representative's body.
func mergeMains(mains [][]Sym, rep []int, opts Options) []Main {
	par := opts.Parallelism
	type group struct {
		rep    []Sym
		merged Main
	}
	var groups []*group
	// firstSimilar returns the lowest-indexed group similar to body (= the
	// sequential first match), or -1. The similarity checks against
	// existing groups are independent — each reads only the group's fixed
	// representative — so they parallelize; only the LCS fold into the
	// group is ordered. Dispatch is only worth it when the edit-distance DP
	// brings real work: below ~2^16 total cells the checks finish faster
	// than the workers spawn (measured; see DESIGN.md §14).
	firstSimilar := func(body []Sym) int {
		cells := len(body) * len(body) * len(groups)
		if par <= 1 || len(groups) < 2 || cells < similarParCutoffCells {
			for gi, gr := range groups {
				if similar(gr.rep, body, opts.MainSimilarity) {
					return gi
				}
			}
			return -1
		}
		match := make([]bool, len(groups))
		parfor(len(groups), par, func(gi int) {
			match[gi] = similar(groups[gi].rep, body, opts.MainSimilarity)
		})
		return slices.Index(match, true)
	}
	groupOf := make([]int, len(mains))
	for rank, body := range mains {
		// A class member joins its representative's group: every lower
		// group already failed similar against this very body, and the
		// representative's own group matches it — unless the body is too
		// long for the edit-distance table, where similar is false even for
		// identical bodies and the member must scan like any other rank.
		var placed int
		if c := rep[rank]; c != rank && (len(body)+1)*(len(body)+1) <= editCellCap {
			placed = groupOf[c]
		} else {
			placed = firstSimilar(body)
		}
		if placed >= 0 {
			gr := groups[placed]
			gr.merged = lcsMerge(gr.merged, singleRankMain(rank, body))
		} else {
			placed = len(groups)
			groups = append(groups, &group{rep: body, merged: singleRankMain(rank, body)})
		}
		groupOf[rank] = placed
	}
	var out []Main
	for _, gr := range groups {
		out = append(out, gr.merged)
	}
	return out
}

func singleRankMain(rank int, body []Sym) Main {
	m := Main{Ranks: rankset.Single(rank)}
	for _, s := range body {
		m.Body = append(m.Body, MainSym{Sym: s, Ranks: rankset.Single(rank)})
	}
	return m
}

func convertBody(body []sequitur.Sym, ruleMap map[int]int) []Sym {
	out := make([]Sym, len(body))
	for i, s := range body {
		if s.IsRule {
			out[i] = Sym{Ref: ruleMap[s.Ref], IsRule: true, Count: s.Count}
		} else {
			out[i] = Sym{Ref: s.Ref, Count: s.Count}
		}
	}
	return out
}

func signature(body []Sym) string {
	var b strings.Builder
	for _, s := range body {
		if s.IsRule {
			fmt.Fprintf(&b, "r%d^%d;", s.Ref, s.Count)
		} else {
			fmt.Fprintf(&b, "t%d^%d;", s.Ref, s.Count)
		}
	}
	return b.String()
}

func log2ceil(n int) int {
	steps := 0
	for v := 1; v < n; v <<= 1 {
		steps++
	}
	return steps
}

// editCellCap bounds the DP table size; beyond it two mains are simply
// declared dissimilar rather than spending quadratic memory.
const editCellCap = 4 << 20

// similarParCutoffCells is the estimated edit-distance DP cell count (body
// length squared times group count) below which the per-rank similarity
// checks run serially; at ~2ns per cell that is ~130µs of work, an order
// of magnitude above the worker dispatch cost it must amortize.
const similarParCutoffCells = 1 << 16

// similar reports whether the normalized edit distance between two symbol
// sequences is within the threshold.
func similar(a, b []Sym, threshold float64) bool {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return true
	}
	max := n
	if m > max {
		max = m
	}
	if (n+1)*(m+1) > editCellCap {
		return false
	}
	d := editDistance(a, b)
	return float64(d)/float64(max) <= threshold
}

// editDistance is the Levenshtein distance over symbols (exact matches
// only), with O(min(n,m)) memory.
func editDistance(a, b []Sym) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// lcsMerge merges two main rules (paper Fig. 3): symbols on the longest
// common subsequence take the union of both rank lists; symbols off it are
// interleaved in their original order with their own rank lists.
func lcsMerge(a, b Main) Main {
	n, m := len(a.Body), len(b.Body)
	// LCS DP over exact symbol equality.
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a.Body[i].Sym == b.Body[j].Sym {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	out := Main{Ranks: a.Ranks.Union(b.Ranks)}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a.Body[i].Sym == b.Body[j].Sym:
			out.Body = append(out.Body, MainSym{
				Sym:   a.Body[i].Sym,
				Ranks: a.Body[i].Ranks.Union(b.Body[j].Ranks),
			})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			out.Body = append(out.Body, a.Body[i])
			i++
		default:
			out.Body = append(out.Body, b.Body[j])
			j++
		}
	}
	out.Body = append(out.Body, a.Body[i:]...)
	out.Body = append(out.Body, b.Body[j:]...)
	return out
}
