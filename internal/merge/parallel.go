package merge

import (
	"math"
	"sync"
	"sync/atomic"

	"siesta/internal/perfmodel"
	"siesta/internal/trace"
)

// This file implements the inter-process terminal-table merge as the
// paper's ⌈log₂P⌉-round pairwise tree reduction (§2.6.1), executed by a
// bounded worker pool.
//
// Determinism is the load-bearing invariant: the server's artifact cache
// and OptionsFingerprint assume that two syntheses with equal options
// produce byte-identical programs, regardless of Options.Parallelism. The
// reduction therefore never races on order: the tree's shape is a pure
// function of the rank count, every pairwise merge is a pure function of
// its two inputs (left table order is preserved, unmatched right entries
// append in right order), and the worker pool only decides *which
// goroutine* executes a given merge, never the merge DAG itself. Running
// with one worker executes the identical tree serially, so Parallelism=1
// and Parallelism=N outputs are byte-identical by construction.

// partial is one node of the reduction tree: a globalized table covering a
// contiguous run of ranks.
type partial struct {
	clusters []*trace.Cluster
	cindex   *clusterIndex
	records  []*trace.Record
	keys     []string // records[i].KeyString(), cached across rounds
	recIndex map[string]int
	// recMaps maps each covered rank's original local table ids to this
	// partial's record ids; sequences are rewritten once, at the root.
	// The id slices are pooled (trace.IntBuf): a merge that composes a
	// child map into the parent releases the child's buffer, and the root
	// releases everything after the sequence rewrite.
	recMaps map[int]*trace.IntBuf
}

func newPartial(th float64) *partial {
	return &partial{
		cindex:   newClusterIndex(th),
		recIndex: map[string]int{},
		recMaps:  map[int]*trace.IntBuf{},
	}
}

// addCluster interns one cluster into the partial: it merges into the
// lowest-indexed existing cluster within the threshold, or appends. The
// returned id is the cluster's global index in this partial.
func (p *partial) addCluster(c *trace.Cluster, th float64) int {
	if found := p.cindex.lookup(p.clusters, c.Rep); found >= 0 {
		gc := p.clusters[found]
		gc.Sum.Add(c.Sum)
		gc.N += c.N
		gc.TimeSum += c.TimeSum
		return found
	}
	p.clusters = append(p.clusters, c)
	id := len(p.clusters) - 1
	p.cindex.insert(c.Rep, id)
	return id
}

// addRecord interns one record (whose ComputeCluster, if any, is already in
// this partial's cluster space) and returns its id. The partial takes
// ownership of r.
func (p *partial) addRecord(r *trace.Record, key string) int {
	if id, ok := p.recIndex[key]; ok {
		return id
	}
	id := len(p.records)
	p.records = append(p.records, r)
	p.keys = append(p.keys, key)
	p.recIndex[key] = id
	return id
}

// leafTable is the one per-rank interner, whichever way the rank arrives
// (chunk stream, in-memory feed, GlobalizeParallel). Clusters intern into
// cl's match-or-append index, like the inner tree nodes, so one rank's
// clusters can still collapse under a threshold coarser than tracing's;
// records, re-keyed after the cluster remap, intern first-wins into table.
// wireCl and wireRec map the source's dense local ids onto leaf ids; key is
// the reused buffer each record's key is rendered into.
type leafTable struct {
	th      float64
	cl      *partial // only the cluster half is used
	table   *trace.SpillTable
	wireCl  []int
	wireRec []int
	key     []byte
}

func newLeafTable(th float64, table *trace.SpillTable) *leafTable {
	return &leafTable{th: th, cl: newPartial(th), table: table}
}

// addCluster interns the source's next cluster; the table keeps c.
func (lt *leafTable) addCluster(c *trace.Cluster) {
	lt.wireCl = append(lt.wireCl, lt.cl.addCluster(c, lt.th))
}

// addRecord interns the source's next record; the table takes ownership
// of r and rewrites its cluster id.
func (lt *leafTable) addRecord(r *trace.Record) {
	if r.IsCompute() {
		r.ComputeCluster = lt.wireCl[r.ComputeCluster]
	}
	lt.key = r.AppendKey(lt.key[:0])
	lt.wireRec = append(lt.wireRec, lt.table.Intern(r, lt.key))
}

// addRank interns a decoded rank's clusters and records. It copies them:
// the reduction rewrites what it interns, and rt stays the caller's.
func (lt *leafTable) addRank(rt *trace.RankTrace) {
	for _, c := range rt.Clusters {
		cp := *c
		lt.addCluster(&cp)
	}
	for _, r := range rt.Table {
		lt.addRecord(r.Clone())
	}
}

// partial hands the rank's interned tables over to the reduction as its
// leaf partial, with an identity recMap so the root maps come out
// leaf→root. The leaf table keeps only its id maps and spill accounting,
// so whatever the reduction does not fold into the root becomes garbage.
// Only re-reading a spilled suffix can fail.
func (lt *leafTable) partial(rank int) (*partial, error) {
	records, keys, index, err := lt.table.Take()
	if err != nil {
		return nil, err
	}
	p := &partial{
		clusters: lt.cl.clusters,
		cindex:   lt.cl.cindex,
		records:  records,
		keys:     keys,
		recIndex: index,
		recMaps:  map[int]*trace.IntBuf{},
	}
	lt.cl = nil
	rm := trace.GetInts(len(records))
	for i := range rm.S {
		rm.S[i] = i
	}
	p.recMaps[rank] = rm
	return p, nil
}

// mergePartials folds right into left: left's cluster and record order is
// preserved, right's unmatched entries append in right order. This is the
// pure pairwise merge the reduction tree is built from.
func mergePartials(left, right *partial, th float64) {
	clusterMap := trace.GetInts(len(right.clusters))
	for i, rc := range right.clusters {
		clusterMap.S[i] = left.addCluster(rc, th)
	}
	recMap := trace.GetInts(len(right.records))
	for j, r := range right.records {
		key := right.keys[j]
		if r.IsCompute() {
			if mapped := clusterMap.S[r.ComputeCluster]; mapped != r.ComputeCluster {
				r.ComputeCluster = mapped
				key = r.KeyString()
			}
		}
		recMap.S[j] = left.addRecord(r, key)
	}
	clusterMap.Unref()
	for rank, rm := range right.recMaps {
		composed := trace.GetInts(len(rm.S))
		for i, id := range rm.S {
			composed.S[i] = recMap.S[id]
		}
		rm.Unref()
		left.recMaps[rank] = composed
	}
	recMap.Unref()
	right.recMaps = nil
}

// reducePartials folds a slice of leaf partials (one per rank, in rank
// order) down to its root with the ⌈log₂P⌉ pairwise reduction; round k
// merges partials 2k·s apart, and every merge within a round is
// independent. The tree's shape depends only on len(parts), never on how
// the leaves were fed.
func reducePartials(parts []*partial, clusterThreshold float64, parallelism int) *partial {
	n := len(parts)
	if n == 0 {
		return newPartial(clusterThreshold)
	}
	for stride := 1; stride < n; stride *= 2 {
		var pairs [][2]int
		for i := 0; i+stride < n; i += 2 * stride {
			pairs = append(pairs, [2]int{i, i + stride})
		}
		parfor(len(pairs), parallelism, func(k int) {
			mergePartials(parts[pairs[k][0]], parts[pairs[k][1]], clusterThreshold)
		})
	}
	return parts[0]
}

// releaseMaps returns the root's per-rank id maps to the buffer pool.
func (p *partial) releaseMaps() {
	for _, rm := range p.recMaps {
		rm.Unref()
	}
	p.recMaps = nil
}

// GlobalizeParallel merges the per-rank terminal tables and computation
// clusters with the paper's pairwise tree reduction, using up to
// parallelism workers per round, and rewrites every rank's event sequence
// onto the global tables. Output is byte-identical for every parallelism
// value (see the file comment); parallelism ≤ 1 runs the same tree
// serially.
func GlobalizeParallel(tr *trace.Trace, clusterThreshold float64, parallelism int) *Globalized {
	numRanks := len(tr.Ranks)
	tabs := make([]*leafTable, numRanks)
	parts := make([]*partial, numRanks)
	parfor(numRanks, parallelism, func(r int) {
		tabs[r] = newLeafTable(clusterThreshold, trace.NewSpillTable(0, nil))
		tabs[r].addRank(tr.Ranks[r])
		parts[r], _ = tabs[r].partial(r) // nothing spills, so no error
	})
	root := reducePartials(parts, clusterThreshold, parallelism)
	defer root.releaseMaps()

	g := &Globalized{
		Terminals: root.records,
		Clusters:  root.clusters,
		Seqs:      make([][]int, numRanks),
		seqBufs:   make([]*trace.IntBuf, numRanks),
	}
	parfor(numRanks, parallelism, func(r int) {
		rm, wire := root.recMaps[r].S, tabs[r].wireRec
		events := tr.Ranks[r].Events
		seq := trace.GetInts(len(events))
		for j, id := range events {
			seq.S[j] = rm[wire[id]]
		}
		g.seqBufs[r] = seq
		g.Seqs[r] = seq.S
	})
	return g
}

// --- bucketed cluster index ------------------------------------------------

// clusterIndex accelerates the "lowest-indexed cluster within the
// threshold" query: cluster representatives are quantized onto a
// logarithmic grid with cell size ln(1+threshold) per metric, so any two
// representatives within the (symmetric) relative threshold land in the
// same or adjacent cells. A lookup therefore only inspects the 3^m
// neighbouring cells instead of scanning every cluster; for small tables a
// plain scan is cheaper and provably returns the same answer (both pick
// the minimum matching index).
type clusterIndex struct {
	th      float64
	invCell float64 // 1 / ln(1+th)
	cells   map[clusterCell][]int
}

type clusterCell [perfmodel.NumMetrics]int16

// indexCutover is the cluster count below which a linear scan beats the
// 3^NumMetrics-cell neighbourhood probe.
const indexCutover = 64

func newClusterIndex(th float64) *clusterIndex {
	ci := &clusterIndex{th: th}
	if th > 0 {
		ci.invCell = 1 / math.Log1p(th)
		ci.cells = map[clusterCell][]int{}
	}
	return ci
}

func (ci *clusterIndex) cellOf(c perfmodel.Counters) clusterCell {
	var cell clusterCell
	for i, v := range c {
		if v < 1 {
			v = 1
		}
		cell[i] = int16(math.Log(v) * ci.invCell)
	}
	return cell
}

func (ci *clusterIndex) insert(rep perfmodel.Counters, id int) {
	if ci.cells == nil {
		return
	}
	cell := ci.cellOf(rep)
	ci.cells[cell] = append(ci.cells[cell], id)
}

// lookup returns the lowest-indexed cluster whose representative is within
// the symmetric threshold of rep, or -1.
func (ci *clusterIndex) lookup(clusters []*trace.Cluster, rep perfmodel.Counters) int {
	if ci.cells == nil || len(clusters) < indexCutover {
		for i, gc := range clusters {
			if clusterDist(rep, gc.Rep) <= ci.th {
				return i
			}
		}
		return -1
	}
	center := ci.cellOf(rep)
	best := -1
	// Walk the 3^m neighbourhood with a base-3 odometer. If
	// symDist(a,b) ≤ th then |ln(max(aᵢ,1)) − ln(max(bᵢ,1))| ≤ ln(1+th)
	// for every metric i, so every admissible cluster is at most one cell
	// away on every axis.
	var offs [perfmodel.NumMetrics]int
	for {
		cell := center
		for i, o := range offs {
			cell[i] += int16(o - 1)
		}
		for _, id := range ci.cells[cell] {
			if (best < 0 || id < best) && clusterDist(rep, clusters[id].Rep) <= ci.th {
				best = id
			}
		}
		i := 0
		for ; i < len(offs); i++ {
			offs[i]++
			if offs[i] < 3 {
				break
			}
			offs[i] = 0
		}
		if i == len(offs) {
			break
		}
	}
	return best
}

// --- worker pool -----------------------------------------------------------

// chunksPerWorker is how many chunks each worker claims on average: enough
// slack to rebalance a straggling chunk, few enough that the per-chunk
// atomic is amortized over many items. 4 is the conventional sweet spot —
// with W workers the slowest worker idles for at most ~1/(4W) of the stage.
const chunksPerWorker = 4

// parforSerialCutoff is the item count below which a parfor over *cheap*
// items (sub-microsecond each, e.g. one convertBody per rule) runs
// serially. Measured by BenchmarkParforOverhead (see DESIGN.md §14): one
// parfor dispatch costs ~1–5µs over the plain loop (par 2–8) in goroutine
// create, schedule, and join, so a stage has to bring at least a few tens
// of microseconds of real work before spreading it pays. Callers with heavy
// items (whole-rank grammar inference, pairwise table merges) bypass this
// via plain parfor, which only degenerates when n or par is 1.
const parforSerialCutoff = 64

// parfor runs fn(0..n-1) on up to par workers, claiming chunks of indices
// with one atomic add per chunk. The calling goroutine participates as a
// worker, so par=2 spawns a single goroutine. Iterations must be
// independent; with par ≤ 1 it degenerates to a plain loop, which is what
// makes sequential and parallel runs execute the same code.
func parfor(n, par int, fn func(int)) {
	if n <= 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	grain := n / (par * chunksPerWorker)
	if grain < 1 {
		grain = 1
	}
	var next atomic.Int64
	work := func() {
		for {
			hi := int(next.Add(int64(grain)))
			lo := hi - grain
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// parforCheap is parfor for stages whose per-item cost is far below the
// dispatch cost: it stays serial until the item count clears the measured
// cutoff.
func parforCheap(n, par int, fn func(int)) {
	if n < parforSerialCutoff {
		par = 1
	}
	parfor(n, par, fn)
}
