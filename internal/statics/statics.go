// Package statics computes exact proxy metrics from a merged program without
// simulation. Two engines cooperate: a multiplicity fold over the grammar
// (merge.TerminalCounter, O(|grammar|) per rank) yields every
// per-terminal additive metric — call histograms, per-cluster compute totals
// — and the check package's abstract machine, observed through check.Hooks,
// resolves everything that needs MPI matching semantics: world-rank
// point-to-point volume under communicator splits, per-communicator
// collective participation, and a critical-path lower bound on runtime. The
// two engines cross-validate: the fold's event count must equal the
// machine's expansion count, so a bug in either surfaces as a hard error
// rather than a silently wrong report.
//
// The agreement contract (pinned by the statics tests and CI): for a clean
// program traced from a run, every integer metric here equals the
// obs.Timeline-derived value from that run — message counts and bytes per
// rank pair, per-rank per-function call counts, collective participation —
// and the traced compute totals match to float-summation tolerance. That is
// the paper's "proxy ≡ trace" fidelity argument, checked by construction.
package statics

import (
	"fmt"
	"sort"

	"siesta/internal/check"
	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/trace"
)

// Options configures an analysis pass. The check-relevant fields mirror
// check.Options, so the embedded diagnostics match what `siesta check`
// reports for the same program.
type Options struct {
	ExactBytes     bool
	AbsoluteRanks  bool
	MaxDiagnostics int
}

// Analyze statically analyzes the merged program on the given platform
// (nil resolves the program's recorded platform name). The error return is
// reserved for structurally broken programs; semantic findings land in
// Report.Check as diagnostics. It is NewCollector and Report around one
// check.Verify: a caller that verifies the program anyway (core's gate)
// attaches the collector there and skips the second machine run.
func Analyze(p *merge.Program, plat *platform.Platform, opts Options) (*Report, error) {
	col := NewCollector(p)
	ckRep, err := check.Verify(p, check.Options{
		ExactBytes:     opts.ExactBytes,
		AbsoluteRanks:  opts.AbsoluteRanks,
		MaxDiagnostics: opts.MaxDiagnostics,
		Hooks:          col,
	})
	if err != nil {
		return nil, err
	}
	return col.Report(ckRep, plat)
}

// Report folds the grammar, cross-checks its event count against the
// machine run the collector observed, and assembles the analysis. ck is
// that run's report; plat is resolved as in Analyze. Call it once, after
// the check.Verify that used the collector as its Hooks.
func (c *Collector) Report(ck *check.Report, plat *platform.Platform) (*Report, error) {
	if plat == nil {
		var err error
		if plat, err = platform.ByName(c.p.Platform); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		NumRanks: c.p.NumRanks,
		Platform: plat.Name,
		Check:    ck,
	}
	if err := c.foldGrammar(rep, plat); err != nil {
		return nil, err
	}
	if rep.Events != int64(ck.Events) {
		return nil, fmt.Errorf("statics: multiplicity fold counts %d events but expansion counts %d", rep.Events, ck.Events)
	}
	c.finish(rep)
	return rep, nil
}

// msgInfo remembers a posted message until its receive completes. Message
// ids are assigned sequentially by the machine, so the collector keeps
// them in a flat window indexed by id − msgBase (see Collector.msgs).
type msgInfo struct {
	src      int
	bytes    int
	sendTime float64
}

type pendingColl struct {
	comm  int
	seq   int
	idx   int
	valid bool
}

type commAgg struct {
	size      int
	steps     int64
	completed int64
	arrivals  int64
	bytes     int64
	byFunc    map[string]int64
	entry     []float64 // collective seq -> latest member entry clock
}

// Collector implements check.Hooks, folding the machine's event stream into
// matrices, per-communicator stats and the critical-path clocks. The hook
// stream fires once per event, so every per-event structure here is a flat
// slice: pairs are a dense P×P index (communicator instance ids and message
// ids are small and sequential), and maps appear only off the hot path.
// A Collector observes one check.Verify run of the program it was made for.
type Collector struct {
	p *merge.Program

	executed int64
	pairIdx  []int32 // src*P + dst -> index into pairList, -1 absent
	pairList []PairVolume
	pairOver map[[2]int]*PairVolume // out-of-world endpoints (corrupt input)
	ranks    []RankTotals
	comms    []*commAgg // communicator instance id -> aggregate
	pending  []pendingColl
	// msgs is a window over message ids: msgs[i] is message msgBase+i,
	// and the first msgHead entries are consumed. Send compacts the
	// consumed prefix away before it grows the window, so its length
	// follows the messages in flight, not the messages sent.
	msgs     []msgInfo
	msgBase  int
	msgHead  int
	clock    []float64
	termTime []float64 // terminal id -> compute advance (0 for non-compute)
}

// NewCollector prepares a collector for one machine run over p: pass it as
// check.Options.Hooks, then call Report.
func NewCollector(p *merge.Program) *Collector {
	c := &Collector{
		p:        p,
		pairIdx:  make([]int32, p.NumRanks*p.NumRanks),
		ranks:    make([]RankTotals, p.NumRanks),
		pending:  make([]pendingColl, p.NumRanks),
		msgs:     make([]msgInfo, 0, 1024),
		clock:    make([]float64, p.NumRanks),
		termTime: make([]float64, len(p.Terminals)),
	}
	for i := range c.pairIdx {
		c.pairIdx[i] = -1
	}
	for r := range c.ranks {
		c.ranks[r].Rank = r
	}
	for term, rec := range p.Terminals {
		if rec.IsCompute() {
			if cl := rec.ComputeCluster; cl >= 0 && cl < len(p.Clusters) {
				c.termTime[term] = p.Clusters[cl].MeanTime()
			}
		}
	}
	return c
}

// pairOf returns the aggregate for the (src, dst) channel, creating it on
// first use.
func (c *Collector) pairOf(src, dst int) *PairVolume {
	p := c.p.NumRanks
	if src >= 0 && src < p && dst >= 0 && dst < p {
		k := src*p + dst
		if i := c.pairIdx[k]; i >= 0 {
			return &c.pairList[i]
		}
		c.pairIdx[k] = int32(len(c.pairList))
		c.pairList = append(c.pairList, PairVolume{Src: src, Dst: dst})
		return &c.pairList[len(c.pairList)-1]
	}
	pv := c.pairOver[[2]int{src, dst}]
	if pv == nil {
		pv = &PairVolume{Src: src, Dst: dst}
		if c.pairOver == nil {
			c.pairOver = map[[2]int]*PairVolume{}
		}
		c.pairOver[[2]int{src, dst}] = pv
	}
	return pv
}

// commOf returns the aggregate for a communicator instance id, creating it
// on first use. Instance ids are assigned sequentially by the machine.
func (c *Collector) commOf(commID, size int) *commAgg {
	if commID < 0 {
		return nil
	}
	for len(c.comms) <= commID {
		c.comms = append(c.comms, nil)
	}
	agg := c.comms[commID]
	if agg == nil {
		agg = &commAgg{size: size, byFunc: map[string]int64{}}
		c.comms[commID] = agg
	}
	return agg
}

// Exec implements check.Hooks. The machine fires it in a valid topological
// order of the blocking-dependency graph, so advancing each rank's clock
// here — after RecvComplete and the collective barrier max have pulled it
// forward — yields the critical-path lower bound in a single pass.
func (c *Collector) Exec(rank, idx, term int, rec *trace.Record) {
	c.executed++
	if p := &c.pending[rank]; p.valid && p.idx == idx {
		if p.comm < len(c.comms) {
			if agg := c.comms[p.comm]; agg != nil && p.seq < len(agg.entry) && agg.entry[p.seq] > c.clock[rank] {
				c.clock[rank] = agg.entry[p.seq]
			}
		}
		p.valid = false
	}
	if term >= 0 && term < len(c.termTime) {
		c.clock[rank] += c.termTime[term]
	}
}

// Send implements check.Hooks.
func (c *Collector) Send(msgID, src, dst, tag, bytes, term int) {
	pv := c.pairOf(src, dst)
	pv.Messages++
	pv.Bytes += int64(bytes)
	c.ranks[src].SentMessages++
	c.ranks[src].SentBytes += int64(bytes)
	i := msgID - c.msgBase
	if i < 0 {
		return // ids only grow; a stale id has nothing to record
	}
	if i >= cap(c.msgs) && 2*c.msgHead >= len(c.msgs) {
		// Slide rather than grow: at least half the window is consumed.
		n := copy(c.msgs, c.msgs[c.msgHead:])
		c.msgs = c.msgs[:n]
		c.msgBase += c.msgHead
		i -= c.msgHead
		c.msgHead = 0
	}
	for len(c.msgs) <= i {
		c.msgs = append(c.msgs, msgInfo{src: -1})
	}
	c.msgs[i] = msgInfo{src: src, bytes: bytes, sendTime: c.clock[src]}
}

// RecvComplete implements check.Hooks.
func (c *Collector) RecvComplete(rank, idx, msgID int) {
	i := msgID - c.msgBase
	if i < 0 || i >= len(c.msgs) || c.msgs[i].src < 0 {
		return
	}
	m := c.msgs[i]
	c.msgs[i].src = -1 // consumed; ignore a duplicate completion
	for c.msgHead < len(c.msgs) && c.msgs[c.msgHead].src < 0 {
		c.msgHead++
	}
	c.ranks[rank].RecvMessages++
	c.ranks[rank].RecvBytes += int64(m.bytes)
	p := c.p.NumRanks
	if m.src >= 0 && m.src < p && rank >= 0 && rank < p {
		if i := c.pairIdx[m.src*p+rank]; i >= 0 {
			c.pairList[i].Matched++
		}
	} else if pv := c.pairOver[[2]int{m.src, rank}]; pv != nil {
		pv.Matched++
	}
	if m.sendTime > c.clock[rank] {
		c.clock[rank] = m.sendTime
	}
}

// CollArrive implements check.Hooks.
func (c *Collector) CollArrive(rank, idx, commID int, members []int, seq int, blocking bool, rec *trace.Record) {
	agg := c.commOf(commID, len(members))
	if agg == nil || seq < 0 {
		return
	}
	agg.arrivals++
	agg.bytes += int64(rec.Bytes)
	agg.byFunc[rec.Func.String()]++
	if int64(seq+1) > agg.steps {
		agg.steps = int64(seq + 1)
	}
	c.ranks[rank].CollectiveOps++
	for len(agg.entry) <= seq {
		agg.entry = append(agg.entry, 0)
	}
	if c.clock[rank] > agg.entry[seq] {
		agg.entry[seq] = c.clock[rank]
	}
	if blocking {
		c.pending[rank] = pendingColl{comm: commID, seq: seq, idx: idx, valid: true}
	}
}

// CollComplete implements check.Hooks.
func (c *Collector) CollComplete(commID, seq int) {
	if commID >= 0 && commID < len(c.comms) && c.comms[commID] != nil {
		c.comms[commID].completed++
	}
}

// foldGrammar fills in everything computable from terminal multiplicities
// alone: the call histogram, per-rank call and compute totals, and the
// per-cluster cost table. Terminals are visited by dense id, never by map
// iteration, so float accumulation order is deterministic.
func (c *Collector) foldGrammar(rep *Report, plat *platform.Platform) error {
	funcAgg := map[mpicall.Func]*FuncCount{}
	clusterEvents := make([]int64, len(c.p.Clusters))
	counter := c.p.NewTerminalCounter()
	counts := make([]int64, len(c.p.Terminals))
	for rank := 0; rank < c.p.NumRanks; rank++ {
		if err := counter.CountsDense(rank, counts); err != nil {
			return err
		}
		rt := &c.ranks[rank]
		for term := 0; term < len(c.p.Terminals); term++ {
			n := counts[term]
			if n == 0 {
				continue
			}
			rec := c.p.Terminals[term]
			rep.Events += n
			rt.Calls += n
			fc := funcAgg[rec.Func]
			if fc == nil {
				fc = &FuncCount{Func: rec.Func.String()}
				funcAgg[rec.Func] = fc
			}
			fc.Calls += n
			fc.Bytes += n * int64(rec.Bytes)
			if rec.IsCompute() {
				rt.ComputeEvents += n
				if cl := rec.ComputeCluster; cl >= 0 && cl < len(c.p.Clusters) {
					clusterEvents[cl] += n
					rt.ComputeSeconds += float64(n) * c.p.Clusters[cl].MeanTime()
				}
			}
		}
	}
	for _, fc := range funcAgg { //maporder:ok — sorted before any output
		rep.Funcs = append(rep.Funcs, *fc)
	}
	sort.Slice(rep.Funcs, func(i, j int) bool { return rep.Funcs[i].Func < rep.Funcs[j].Func })
	for i, cl := range c.p.Clusters {
		cost := ClusterCost{
			Cluster:      i,
			Events:       clusterEvents[i],
			N:            cl.N,
			MeanSeconds:  cl.MeanTime(),
			TotalSeconds: cl.TimeSum,
			ModelSeconds: plat.CyclesToSeconds(cl.Sum[perfmodel.CYC]),
		}
		rep.Clusters = append(rep.Clusters, cost)
		rep.ComputeSeconds += cost.TotalSeconds
		rep.ModelComputeSeconds += cost.ModelSeconds
	}
	return nil
}

// finish sorts the machine-derived aggregates into the report.
func (c *Collector) finish(rep *Report) {
	rep.ExecutedEvents = c.executed
	rep.Complete = c.executed == rep.Events

	rep.Pairs = append(rep.Pairs, c.pairList...)
	for _, pv := range c.pairOver { //maporder:ok — sorted below
		rep.Pairs = append(rep.Pairs, *pv)
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		if rep.Pairs[i].Src != rep.Pairs[j].Src {
			return rep.Pairs[i].Src < rep.Pairs[j].Src
		}
		return rep.Pairs[i].Dst < rep.Pairs[j].Dst
	})
	for _, pv := range rep.Pairs {
		rep.TotalMessages += pv.Messages
		rep.TotalBytes += pv.Bytes
	}

	for id, agg := range c.comms { // instance ids ascending by construction
		if agg == nil {
			continue
		}
		rep.Comms = append(rep.Comms, CommStats{
			Comm:      id,
			Size:      agg.size,
			Steps:     agg.steps,
			Completed: agg.completed,
			Arrivals:  agg.arrivals,
			Bytes:     agg.bytes,
			ByFunc:    agg.byFunc,
		})
	}

	rep.Ranks = c.ranks
	for r := range rep.Ranks {
		rep.Ranks[r].LowerBoundSeconds = c.clock[r]
		if c.clock[r] > rep.CriticalPathSeconds {
			rep.CriticalPathSeconds = c.clock[r]
		}
	}
}
