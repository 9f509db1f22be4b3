// Package trace implements Siesta's tracing layer (paper §2.2–§2.3): it
// records communication events (every MPI call with full parameters) and
// computation events (hardware-counter vectors between consecutive MPI
// calls, exposed as calls of the virtual function MPI_Compute). Runtime
// handles are renamed through free-number pools, point-to-point partners are
// encoded as relative ranks, and similar computation events are clustered
// under a threshold — the three transformations that make SPMD traces
// compressible by the grammar stage.
package trace

import (
	"hash/maphash"
	"slices"
	"sort"
	"strconv"

	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
)

// NoRank is the sentinel used for absent or wildcard rank fields.
const NoRank = -1 << 20

// Record is one unique event terminal: the information that distinguishes
// one MPI call (or computation event) from another after rank-relative and
// pool encoding. Records with equal keys are the same terminal everywhere —
// on one rank, across ranks, and across the grammar pipeline.
type Record struct {
	Func mpicall.Func

	// Point-to-point partners, encoded relative to the caller's rank in
	// the communicator: rel = (partner − me + size) mod size. Wildcards
	// and unused fields hold NoRank.
	DestRel int
	SrcRel  int

	Tag   int
	Bytes int

	// Sendrecv's receive half.
	RecvTag int

	Root int // collective root (absolute comm rank), NoRank if unused

	Op string // reduction operator, "" if unused

	CommPool    int   // communicator pool number
	NewCommPool int   // pool number created by Comm_split/dup, -1 if none
	ReqPool     int   // request pool number, -1 if none
	ReqPools    []int // Waitall request pool numbers

	Counts []int // v-collective per-destination counts

	Color, Key int // Comm_split arguments (Key relative-encoded)

	// MPI-IO: the file-handle pool number, the rank-relative file offset
	// (offsetRel = offset − myRank·bytes, which collapses the canonical
	// "each rank writes its own block" pattern to one terminal), and the
	// file name for opens.
	FilePool  int
	OffsetRel int
	FileName  string

	// Computation events: the cluster this event belongs to.
	ComputeCluster int
}

// IsCompute reports whether the record is a computation event.
func (r *Record) IsCompute() bool { return r.Func == mpicall.Compute }

// KeyString returns the canonical hash key of the record: equal keys mean
// identical terminals. This is the string the paper stores in the per-rank
// hash tables.
func (r *Record) KeyString() string { return string(r.AppendKey(nil)) }

// AppendKey appends the canonical key to b and returns the extended slice.
// The merge leaf tables' hot path builds keys into a reused scratch buffer
// and probes its intern table via map[string(b)] — which the compiler
// compiles without materializing a string — so only genuinely new
// terminals pay a string allocation. The recorder interns by field hash
// instead (internTable) and renders no key at all.
func (r *Record) AppendKey(b []byte) []byte {
	appendInt := func(b []byte, tag string, v int) []byte {
		b = append(b, tag...)
		return strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, r.Func.String()...)
	b = appendInt(b, "|d", r.DestRel)
	b = appendInt(b, "|s", r.SrcRel)
	b = appendInt(b, "|t", r.Tag)
	b = appendInt(b, "|n", r.Bytes)
	b = appendInt(b, "|rt", r.RecvTag)
	b = appendInt(b, "|r", r.Root)
	b = append(b, "|o"...)
	b = append(b, r.Op...)
	b = appendInt(b, "|c", r.CommPool)
	b = appendInt(b, "|nc", r.NewCommPool)
	b = appendInt(b, "|q", r.ReqPool)
	if len(r.ReqPools) > 0 {
		b = append(b, "|qs"...)
		for _, q := range r.ReqPools {
			b = appendInt(b, ",", q)
		}
	}
	if len(r.Counts) > 0 {
		b = append(b, "|cn"...)
		for _, c := range r.Counts {
			b = appendInt(b, ",", c)
		}
	}
	b = appendInt(b, "|cl", r.Color)
	b = appendInt(b, "|ck", r.Key)
	b = appendInt(b, "|cc", r.ComputeCluster)
	b = appendInt(b, "|f", r.FilePool)
	b = appendInt(b, "|fo", r.OffsetRel)
	b = append(b, "|fn"...)
	b = append(b, r.FileName...)
	return b
}

// internSeed keys the string half of internHash. Hash values differ
// between processes, but interned ids follow insertion order, so every
// table comes out the same.
var internSeed = maphash.MakeSeed()

// internHash hashes every field KeyString renders, in AppendKey's order,
// with list lengths mixed in. Equal fields hash equal; the recorder's
// intern table confirms each hash hit with sameFields, so the hash only
// has to spread records, never to tell them apart.
func (r *Record) internHash() uint64 {
	h := uint64(r.Func)
	for _, v := range [...]int{r.DestRel, r.SrcRel, r.Tag, r.Bytes, r.RecvTag, r.Root} {
		h = mixHash(h, uint64(v))
	}
	if r.Op != "" {
		h = mixHash(h, maphash.String(internSeed, r.Op))
	}
	for _, v := range [...]int{r.CommPool, r.NewCommPool, r.ReqPool, len(r.ReqPools)} {
		h = mixHash(h, uint64(v))
	}
	for _, v := range r.ReqPools {
		h = mixHash(h, uint64(v))
	}
	h = mixHash(h, uint64(len(r.Counts)))
	for _, v := range r.Counts {
		h = mixHash(h, uint64(v))
	}
	for _, v := range [...]int{r.Color, r.Key, r.ComputeCluster, r.FilePool, r.OffsetRel} {
		h = mixHash(h, uint64(v))
	}
	if r.FileName != "" {
		h = mixHash(h, maphash.String(internSeed, r.FileName))
	}
	return h
}

// mixHash folds v into h with one splitmix64 round.
func mixHash(h, v uint64) uint64 {
	h = (h ^ v) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// sameFields reports whether r and o agree on every field KeyString
// renders, so equal fields mean equal KeyStrings.
func (r *Record) sameFields(o *Record) bool {
	return r.Func == o.Func && r.DestRel == o.DestRel && r.SrcRel == o.SrcRel &&
		r.Tag == o.Tag && r.Bytes == o.Bytes && r.RecvTag == o.RecvTag &&
		r.Root == o.Root && r.Op == o.Op && r.CommPool == o.CommPool &&
		r.NewCommPool == o.NewCommPool && r.ReqPool == o.ReqPool &&
		slices.Equal(r.ReqPools, o.ReqPools) && slices.Equal(r.Counts, o.Counts) &&
		r.Color == o.Color && r.Key == o.Key && r.ComputeCluster == o.ComputeCluster &&
		r.FilePool == o.FilePool && r.OffsetRel == o.OffsetRel && r.FileName == o.FileName
}

// internTable interns one rank's records by field hash while the recorder
// builds its trace: an open-addressed table of (hash, id+1) slots probed
// linearly, where a slot whose hash matches is confirmed by comparing
// fields. A hash collision costs one comparison, never a wrong id, and no
// probe renders a key.
type internTable struct {
	slots []internSlot // a power of two long; id 0 marks an empty slot
	n     int
}

type internSlot struct {
	hash uint64
	id   int // table id + 1
}

// minInternSlots is a new table's size.
const minInternSlots = 64

// find returns r's id in table, or -1 and the empty slot where r goes.
func (t *internTable) find(h uint64, r *Record, table []*Record) (id, at int) {
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id == 0 {
			return -1, i
		}
		if s.hash == h && table[s.id-1].sameFields(r) {
			return s.id - 1, i
		}
	}
}

// insert fills the empty slot at with (h, id), doubling the table once it
// is half full.
func (t *internTable) insert(at int, h uint64, id int) {
	t.slots[at] = internSlot{hash: h, id: id + 1}
	t.n++
	if 2*t.n <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]internSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := int(s.hash) & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Clone deep-copies the record.
func (r *Record) Clone() *Record {
	c := *r
	c.ReqPools = append([]int(nil), r.ReqPools...)
	c.Counts = append([]int(nil), r.Counts...)
	return &c
}

// ComputeCluster aggregates the computation events that tracing clustered
// together (paper §2.3: "we set a threshold to cluster similar computation
// events into one event"). Rep is the first-seen vector used for membership
// tests; Target (the mean) is what the proxy search mimics.
type Cluster struct {
	Rep     perfmodel.Counters
	Sum     perfmodel.Counters
	N       int
	TimeSum float64 // summed virtual duration, for reference and baselines
}

// Target returns the mean counter vector of the cluster.
func (c *Cluster) Target() perfmodel.Counters {
	if c.N == 0 {
		return perfmodel.Counters{}
	}
	return c.Sum.Scale(1 / float64(c.N))
}

// MeanTime returns the mean duration of the clustered events in seconds.
func (c *Cluster) MeanTime() float64 {
	if c.N == 0 {
		return 0
	}
	return c.TimeSum / float64(c.N)
}

// clusterDistance is the relative distance used for cluster membership: the
// maximum per-metric relative difference.
func clusterDistance(a, b perfmodel.Counters) float64 {
	var worst float64
	for i := range a {
		den := b[i]
		if den < 1 {
			den = 1
		}
		d := (a[i] - b[i]) / den
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// RankTrace is one process's trace: a sequence of event ids plus the table
// resolving ids to records.
type RankTrace struct {
	Rank   int
	Events []int     // sequence of local event ids
	Durs   []float64 // per-instance virtual durations, parallel to Events
	Table  []*Record // local id -> record
	// intern finds a record's id by its fields while the recorder builds
	// the trace; decoded traces leave it empty, since nothing appends to
	// them.
	intern   internTable
	Clusters []*Cluster // local compute cluster id -> cluster
}

func newRankTrace(rank int) *RankTrace {
	return &RankTrace{
		Rank:   rank,
		Events: make([]int, 0, 512),
		Durs:   make([]float64, 0, 512),
		intern: internTable{slots: make([]internSlot, minInternSlots)},
	}
}

// appendOwned records one event instance from a caller that owns r and
// wants to recycle its storage. The return value reports whether the table
// retained r (a new terminal — the caller must stop touching it) or r
// duplicated an interned record and may be reused, slices and all. The
// probe hashes r's fields and allocates nothing.
func (rt *RankTrace) appendOwned(r *Record) bool {
	h := r.internHash()
	id, at := rt.intern.find(h, r, rt.Table)
	if id >= 0 {
		rt.Events = append(rt.Events, id)
		return false
	}
	id = len(rt.Table)
	rt.Table = append(rt.Table, r)
	rt.intern.insert(at, h, id)
	rt.Events = append(rt.Events, id)
	return true
}

// clusterOf finds or creates the compute cluster for a counter vector.
func (rt *RankTrace) clusterOf(c perfmodel.Counters, dur float64, threshold float64) int {
	for i, cl := range rt.Clusters {
		if clusterDistance(c, cl.Rep) <= threshold {
			cl.Sum.Add(c)
			cl.N++
			cl.TimeSum += dur
			return i
		}
	}
	cl := &Cluster{Rep: c, N: 1, TimeSum: dur}
	cl.Sum = c
	rt.Clusters = append(rt.Clusters, cl)
	return len(rt.Clusters) - 1
}

// Trace is a whole job's trace: one RankTrace per process plus the
// environment it was captured in.
type Trace struct {
	NumRanks int
	Platform string
	Impl     string
	Ranks    []*RankTrace
}

// TotalEvents reports the number of event instances across all ranks.
func (t *Trace) TotalEvents() int {
	n := 0
	for _, rt := range t.Ranks {
		n += len(rt.Events)
	}
	return n
}

// TotalUniqueRecords reports the summed per-rank table sizes (before
// inter-process merging).
func (t *Trace) TotalUniqueRecords() int {
	n := 0
	for _, rt := range t.Ranks {
		n += len(rt.Table)
	}
	return n
}

// FuncHistogram counts event instances by function name, a convenient
// validation surface for tests and reports.
func (t *Trace) FuncHistogram() map[string]int {
	h := map[string]int{}
	for _, rt := range t.Ranks {
		for _, id := range rt.Events {
			h[rt.Table[id].Func.String()]++
		}
	}
	return h
}

// SortedFuncs lists the histogram in deterministic order, for reports.
func (t *Trace) SortedFuncs() []string {
	h := t.FuncHistogram()
	funcs := make([]string, 0, len(h))
	for f := range h {
		funcs = append(funcs, f)
	}
	sort.Strings(funcs)
	return funcs
}
