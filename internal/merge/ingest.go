package merge

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// Ingest is the merge layer's one front end (DESIGN.md §15). Each rank's
// tables arrive either as self-delimiting chunk frames
// (trace.ChunkEncodeRank's format), consumed as they land, or — for batch
// Build — straight from a decoded trace.RankTrace in one in-memory feed.
// Either way terminals intern into a spillable table and clusters into the
// match-or-append index the reduction uses. Commit (Build) runs the
// pairwise tree reduction over the per-rank tables and hands everything
// after to assemble, so the output depends on neither the chunk size nor
// the rank-arrival interleaving: a streamed session and batch Build over
// the equivalent trace produce the same bytes.
//
// Sequitur runs once per leaf class: a set of ranks whose event sequences
// over *leaf* ids — the ids of each rank's own leaf table — are identical.
// Fully-globalized ids do not exist until every rank has arrived, so
// inference runs over leaf ids and globalization is deferred to commit. A
// streamed rank buffers its leaf ids and is classified at its end frame,
// still inside that Feed (classify); a rank that outgrows deferCap infers
// online instead, as its own class. Batch Build classifies every rank
// after the reduction has taken the leaf tables.
//
// Sequitur is invariant under injective relabeling of terminals (its
// decisions depend only on the equality pattern of the token stream), so
// when a rank's leaf→root id map is injective a copy of its leaf class's
// grammar relabels to the grammar of the rank's root-id sequence. The map
// can fail to be injective only when the inner tree merges collapse two
// of the rank's distinct computation clusters into one (coarser threshold,
// cross-rank representatives); the sequence is then re-inferred over root
// ids from the leaf grammar's expansion, once per leaf class and identical
// map. Either way each rank's grammar is the one inference over its root
// ids would give, so equal root grammars are exactly equal root sequences:
// Build groups ranks into root classes by grammar equality and hands
// assemble one representative per class (rootClasses).

// Ingest is one streaming merge session: numRanks rank streams feeding
// one eventual Program. Create with NewIngest, feed each rank through
// Rank(r).Feed, then call Build once every stream has ended. Close (or
// Build, which closes internally) releases the spill file; sessions that
// never commit must call Close so no temp file leaks.
type Ingest struct {
	opts     Options
	platform string
	impl     string
	ranks    []*RankIngestor
	// src is the decoded trace batch Build fed in memory; when set, the
	// losslessness check compares against its events (see Build).
	src *trace.Trace
	// spill is the one file every rank table spills into; nil when
	// spilling is off. Close removes it.
	spill *trace.SpillFile

	// sealed flips when Build or Close begins: feeds arriving after that
	// are rejected rather than racing the reduction.
	sealed atomic.Bool

	mu     sync.Mutex
	built  bool
	closed bool

	// leafMu guards leafByHash, the session's leaf classes by sequence
	// hash (see classify). The map is only looked up, never iterated.
	leafMu     sync.Mutex
	leafByHash map[uint64][]*leafClass
	// inferred counts Sequitur runs over leaf ids: one per leaf class.
	inferred atomic.Int32
	// reinferred counts the expand + re-infer fallbacks at Build (leaf→root
	// map not injective), one per leaf class and identical map. Exposed for
	// tests and diagnostics; byte-equality holds either way.
	reinferred atomic.Int32
	// classes counts the root classes Build found: one per distinct event
	// sequence over root ids (tests read it).
	classes int
}

// Reinferred reports how many re-inference fallbacks Build ran (0 until
// Build runs). Ranks of one leaf class with identical leaf→root maps share
// one, so it counts distinct (leaf class, map) pairs, not ranks.
func (in *Ingest) Reinferred() int { return int(in.reinferred.Load()) }

// NewIngest opens a streaming merge session for numRanks rank streams.
// platformName and implName are stamped on the resulting Program (they
// are what trace.Trace carries for the batch path).
func NewIngest(numRanks int, platformName, implName string, opts Options) (*Ingest, error) {
	if numRanks <= 0 {
		return nil, fmt.Errorf("merge: ingest needs a positive rank count, got %d", numRanks)
	}
	return newIngest(numRanks, platformName, implName, opts), nil
}

func newIngest(numRanks int, platformName, implName string, opts Options) *Ingest {
	opts = opts.withDefaults()
	in := &Ingest{
		opts:       opts,
		platform:   platformName,
		impl:       implName,
		ranks:      make([]*RankIngestor, numRanks),
		leafByHash: map[uint64][]*leafClass{},
	}
	if opts.Spill.HighWater > 0 {
		in.spill = trace.NewSpillFile(opts.Spill.Dir)
	}
	for r := range in.ranks {
		in.ranks[r] = &RankIngestor{
			in:   in,
			rank: r,
			dec:  trace.NewChunkDec(),
			lt:   newLeafTable(opts.ClusterThreshold, trace.NewSpillTable(opts.Spill.HighWater, in.spill)),
		}
	}
	return in
}

// batchIngest opens the private session batch Build commits through: every
// rank of tr is fed in memory — one chunk per rank, no encoding — in
// parallel, since ranks are independent until commit. The feed interns
// the rank's tables; Build classifies its events once the reduction has
// taken those tables, so a batch merge never holds P leaf tables while it
// infers.
func batchIngest(tr *trace.Trace, opts Options) *Ingest {
	in := newIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
	in.src = tr
	parfor(len(in.ranks), in.opts.Parallelism, func(r int) {
		in.ranks[r].lt.addRank(tr.Ranks[r])
	})
	return in
}

// NumRanks reports the session's rank count.
func (in *Ingest) NumRanks() int { return len(in.ranks) }

// Rank returns rank r's ingestor. r must be in [0, NumRanks).
func (in *Ingest) Rank(r int) *RankIngestor { return in.ranks[r] }

// SpillStats aggregates the per-rank terminal tables' footprint split.
func (in *Ingest) SpillStats() trace.SpillStats {
	var agg trace.SpillStats
	for _, ri := range in.ranks {
		ri.mu.Lock()
		st := ri.lt.table.Stats()
		ri.mu.Unlock()
		agg.Records += st.Records
		agg.Spilled += st.Spilled
		agg.ResidentBytes += st.ResidentBytes
		agg.SpilledBytes += st.SpilledBytes
	}
	return agg
}

// seal rejects further feeds and waits out any in flight: after seal
// returns, every RankIngestor is quiescent and safe to read lock-free.
func (in *Ingest) seal() {
	in.sealed.Store(true)
	for _, ri := range in.ranks {
		ri.mu.Lock()
		//lint:ignore SA2001 the empty critical section is the barrier:
		// a Feed that entered before sealing holds ri.mu until done.
		ri.mu.Unlock()
	}
}

// Close releases the session's spill file without building. Idempotent,
// and safe after Build (which closes internally). Abandoned sessions —
// client gone, commit never issued — must be closed or their temp file
// outlives them.
func (in *Ingest) Close() error {
	in.seal()
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return nil
	}
	in.closed = true
	if in.spill == nil {
		return nil
	}
	return in.spill.Close()
}

// Build commits the session: every rank stream must have ended. It runs
// the pairwise tree reduction over the per-rank leaf tables, carries each
// leaf class's grammar onto global ids (relabeled, or where the reduction
// collapsed a rank's terminals, re-inferred), groups the ranks into root
// classes, and assembles the Program. The session's spill file is
// released before Build returns, success or not; Build can run at most
// once.
func (in *Ingest) Build() (*Program, error) {
	in.seal()
	in.mu.Lock()
	if in.built || in.closed {
		in.mu.Unlock()
		return nil, fmt.Errorf("merge: ingest session already %s", map[bool]string{true: "built", false: "closed"}[in.built])
	}
	in.built = true
	in.mu.Unlock()
	defer in.Close()

	opts := in.opts
	par := opts.Parallelism
	for _, ri := range in.ranks {
		if ri.class == nil && in.src == nil {
			return nil, fmt.Errorf("merge: rank %d stream incomplete (no end frame; %d bytes buffered)",
				ri.rank, ri.dec.Buffered())
		}
		if err := ri.err; err != nil {
			return nil, err
		}
	}

	// Leaf partials: the per-rank tables built during ingest.
	parts := make([]*partial, len(in.ranks))
	leafErrs := make([]error, len(in.ranks))
	parfor(len(in.ranks), par, func(r int) {
		parts[r], leafErrs[r] = in.ranks[r].lt.partial(r)
	})
	for _, err := range leafErrs {
		if err != nil {
			return nil, err
		}
	}
	root := reducePartials(parts, opts.ClusterThreshold, par)
	defer root.releaseMaps()

	if in.src != nil { // the in-memory feed's events (see batchIngest)
		parfor(len(in.ranks), par, func(r int) {
			ri := in.ranks[r]
			events := in.src.Ranks[r].Events
			seq := make([]int, len(events))
			for i, id := range events {
				seq[i] = ri.lt.wireRec[id]
			}
			ri.class = in.classify(seq)
			ri.events = len(events)
		})
	}
	grammars, rep := in.rootClasses(root)
	for r, g := range grammars {
		if n := g.ExpandedLen(); n != in.ranks[r].events {
			return nil, fmt.Errorf("merge: rank %d grammar expands to %d events, ingested %d", r, n, in.ranks[r].events)
		}
	}

	// The losslessness self-check's reference: the rank's ingested events
	// mapped onto root ids. Batch Build still holds the trace and reads
	// them from it. A streamed session reads its leaf class's sequence
	// (equal to the rank's own); a rank past deferCap kept none, so its
	// grammar's own expansion stands in, pinned only by the ExpandedLen
	// gate above.
	lossless := func(rank int, got []int) bool {
		rm, c := root.recMaps[rank].S, in.ranks[rank].class
		if in.src != nil {
			wire := in.ranks[rank].lt.wireRec
			return mapsOnto(got, in.src.Ranks[rank].Events, func(id int) int { return rm[wire[id]] })
		}
		if c.seq == nil {
			return slices.Equal(got, grammars[rank].Expand())
		}
		return mapsOnto(got, c.seq, func(leaf int) int { return rm[leaf] })
	}
	return assemble(len(in.ranks), in.platform, in.impl,
		root.records, root.clusters, grammars, rep, lossless, opts)
}

// mapsOnto reports whether got is ids mapped element-wise through f.
func mapsOnto(got, ids []int, f func(int) int) bool {
	if len(got) != len(ids) {
		return false
	}
	for i, id := range ids {
		if got[i] != f(id) {
			return false
		}
	}
	return true
}

// leafClass is one distinct event sequence over leaf ids in a session and
// the grammar Sequitur inferred over it; every rank of the class shares
// that grammar.
type leafClass struct {
	// seq is the founding rank's leaf ids, which later ranks' sequences are
	// confirmed against; nil for a rank that outgrew deferCap.
	seq []int
	g   *sequitur.Grammar
}

// classify gives a rank whose whole leaf-id sequence is seq its leaf class:
// the session's class with an equal sequence, or a new one the rank founds
// and infers. The lookup and insert run under leafMu, and a hash hit is
// confirmed element by element; inference runs after the lock is released,
// on the founding rank's goroutine. A founding rank's class keeps seq.
func (in *Ingest) classify(seq []int) *leafClass {
	h := hashInts(seq)
	in.leafMu.Lock()
	for _, c := range in.leafByHash[h] {
		if slices.Equal(c.seq, seq) {
			in.leafMu.Unlock()
			return c
		}
	}
	c := &leafClass{seq: seq}
	in.leafByHash[h] = append(in.leafByHash[h], c)
	in.leafMu.Unlock()
	in.inferred.Add(1)
	c.g = infer(seq, in.opts)
	return c
}

// infer runs Sequitur over seq.
func infer(seq []int, opts Options) *sequitur.Grammar {
	b := sequitur.NewWithOptions(!opts.DisableRunLength)
	b.AppendAll(seq)
	return b.Grammar()
}

// rootClasses carries every rank's leaf-class grammar onto root ids and
// groups the ranks into root classes (DESIGN.md §15). Ranks of one leaf
// class with identical leaf→root maps share one root grammar: a relabeled
// copy of the leaf grammar when the map is injective, a re-inference over
// the mapped expansion when it is not. Either way it is the grammar
// inference over the rank's root ids gives, so equal root grammars are
// exactly equal root sequences. Root classes are assigned serially in rank
// order through hash buckets that are only looked up, each hit confirmed
// structurally, so a class's representative (rep[r] ≤ r) is its lowest
// rank at every Parallelism. Members share the representative's grammar.
func (in *Ingest) rootClasses(root *partial) ([]*sequitur.Grammar, []int) {
	type rootGrammar struct {
		c    *leafClass
		rm   []int // leaf id -> root id
		g    *sequitur.Grammar
		hash uint64
		rep  int // lowest rank with an equal root grammar; -1 until known
	}
	type mapKey struct {
		c  *leafClass
		rm uint64 // hash of the leaf→root map
	}
	var rgs []*rootGrammar
	of := make([]*rootGrammar, len(in.ranks))
	byMap := map[mapKey][]*rootGrammar{}
	for r, ri := range in.ranks {
		rm := root.recMaps[r].S
		k := mapKey{ri.class, hashInts(rm)}
		i := slices.IndexFunc(byMap[k], func(rg *rootGrammar) bool { return slices.Equal(rg.rm, rm) })
		if i < 0 {
			of[r] = &rootGrammar{c: ri.class, rm: rm, rep: -1}
			byMap[k] = append(byMap[k], of[r])
			rgs = append(rgs, of[r])
		} else {
			of[r] = byMap[k][i]
		}
	}
	parfor(len(rgs), in.opts.Parallelism, func(k int) {
		rg := rgs[k]
		if injective(rg.rm, len(root.records)) {
			rg.g = relabeled(rg.c.g, rg.rm)
		} else {
			in.reinferred.Add(1)
			seq := rg.c.g.Expand()
			for i, leaf := range seq {
				seq[i] = rg.rm[leaf]
			}
			rg.g = infer(seq, in.opts)
		}
		rg.hash = hashGrammar(rg.g)
	})

	grammars := make([]*sequitur.Grammar, len(in.ranks))
	rep := make([]int, len(in.ranks))
	buckets := map[uint64][]int{} // root grammar hash -> representatives
	for r, rg := range of {
		if rg.rep < 0 {
			rg.rep = r
			for _, c := range buckets[rg.hash] {
				if sameGrammar(grammars[c], rg.g) {
					rg.rep = c
					break
				}
			}
			if rg.rep == r {
				buckets[rg.hash] = append(buckets[rg.hash], r)
				grammars[r] = rg.g
				in.classes++
			}
		}
		rep[r] = rg.rep
		grammars[r] = grammars[rg.rep]
	}
	return grammars, rep
}

// relabeled copies g, every terminal mapped through rm, into one slab.
func relabeled(g *sequitur.Grammar, rm []int) *sequitur.Grammar {
	syms := make([]sequitur.Sym, 0, g.NumSymbols())
	out := &sequitur.Grammar{Rules: make([][]sequitur.Sym, len(g.Rules))}
	for i, rule := range g.Rules {
		start := len(syms)
		for _, s := range rule {
			if !s.IsRule {
				s.Ref = rm[s.Ref]
			}
			syms = append(syms, s)
		}
		out.Rules[i] = syms[start:len(syms):len(syms)]
	}
	return out
}

// sameGrammar reports whether a and b have identical rules.
func sameGrammar(a, b *sequitur.Grammar) bool {
	return slices.EqualFunc(a.Rules, b.Rules, func(x, y []sequitur.Sym) bool { return slices.Equal(x, y) })
}

// fnv folds v into an FNV-1a hash; hashes only pick buckets, and every
// bucket hit is confirmed exactly.
func fnv(h uint64, v int) uint64 { return (h ^ uint64(v)) * 1099511628211 }

const fnvOffset = 14695981039346656037

func hashInts(s []int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range s {
		h = fnv(h, v)
	}
	return h
}

func hashGrammar(g *sequitur.Grammar) uint64 {
	h := uint64(fnvOffset)
	for _, rule := range g.Rules {
		h = fnv(h, len(rule))
		for _, s := range rule {
			if s.IsRule {
				h = fnv(h, -1)
			}
			h = fnv(fnv(h, s.Ref), s.Count)
		}
	}
	return h
}

// injective reports whether m (a leaf→root id map) hits no root id twice.
// n is the root table size.
func injective(m []int, n int) bool {
	if len(m) <= 1 {
		return true
	}
	seen := make([]bool, n)
	for _, id := range m {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// deferCap bounds the leaf ids a streamed rank buffers before its end
// frame: 8192 ids, 64 KiB. A rank that would exceed it replays its buffer
// into a Sequitur builder and infers online from then on, as its own leaf
// class, so deferral never holds more than 64 KiB per rank.
const deferCap = 8192

// RankIngestor consumes one rank's chunk stream: decode and intern inline
// with Feed, buffering the rank's events as leaf ids; the Feed that
// carries the end frame classifies and, for a new leaf class, infers. Safe
// for use by one uploader at a time; concurrent Feeds for the same rank
// serialize on the ingestor's lock (arrival order is the byte order).
type RankIngestor struct {
	mu   sync.Mutex
	in   *Ingest
	rank int
	err  error

	dec *trace.ChunkDec
	lt  *leafTable
	// buf holds the rank's leaf ids until the stream ends. b replaces it
	// once the rank outgrows deferCap. class is set when the stream ends
	// (for an in-memory feed, at Build); buf and b are dropped then.
	buf   []int
	b     *sequitur.Builder
	class *leafClass

	events int
	bytes  int64
}

// Feed consumes the next chunk of the rank's stream. Chunks may be split
// at arbitrary byte boundaries; incomplete frames are buffered until the
// next Feed. Errors are sticky — a malformed stream poisons the rank and
// every later Feed reports the same failure.
func (ri *RankIngestor) Feed(chunk []byte) error {
	if ri.in.sealed.Load() {
		return fmt.Errorf("merge: rank %d fed after session was sealed", ri.rank)
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if ri.err != nil {
		return ri.err
	}
	err := ri.dec.Feed(chunk, ri.consume)
	if err == nil {
		err = ri.lt.table.Flush() // surface spill I/O promptly, not at commit
	}
	if err != nil {
		ri.err = err
		return err
	}
	ri.bytes += int64(len(chunk))
	return nil
}

// consume interns one decoded stream item through the rank's leaf table
// and appends its events, mapped to leaf ids, to the rank's sequence.
func (ri *RankIngestor) consume(it trace.ChunkItem) error {
	switch it.Tag {
	case trace.ChunkTagHeader:
		if it.Rank != ri.rank {
			return fmt.Errorf("merge: stream header says rank %d, session slot is rank %d", it.Rank, ri.rank)
		}
	case trace.ChunkTagCluster:
		ri.lt.addCluster(it.Cluster)
	case trace.ChunkTagRecord:
		ri.lt.addRecord(it.Record)
	case trace.ChunkTagEvents:
		ri.append(it.Events)
	case trace.ChunkTagEnd:
		// Totals were validated by the decoder; nothing to intern.
		ri.end()
	}
	return nil
}

// append adds events (ids in the source's local table) to the rank's
// leaf-id buffer, or to its builder once the buffer would pass deferCap.
func (ri *RankIngestor) append(events []int) {
	ri.events += len(events)
	need := len(ri.buf) + len(events)
	if ri.b == nil && need > deferCap {
		ri.in.inferred.Add(1)
		ri.b = sequitur.NewWithOptions(!ri.in.opts.DisableRunLength)
		ri.b.AppendAll(ri.buf)
		ri.buf = nil
	}
	if ri.b != nil {
		for _, id := range events {
			ri.b.Append(ri.lt.wireRec[id])
		}
		return
	}
	if need > cap(ri.buf) { // grow by doubling, never past deferCap
		buf := make([]int, len(ri.buf), min(max(2*cap(ri.buf), need), deferCap))
		copy(buf, ri.buf)
		ri.buf = buf
	}
	for _, id := range events {
		ri.buf = append(ri.buf, ri.lt.wireRec[id])
	}
}

// end closes the rank's stream: it joins (or founds and infers) the leaf
// class of its buffered sequence, or, past deferCap, its builder's grammar
// becomes a class of its own. Either way the buffer and builder go.
func (ri *RankIngestor) end() {
	if ri.b != nil {
		ri.class = &leafClass{g: ri.b.Grammar()}
		ri.b = nil
		return
	}
	ri.class = ri.in.classify(ri.buf)
	ri.buf = nil
}

// Ended reports whether the rank's stream is complete (end frame seen).
func (ri *RankIngestor) Ended() bool {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.class != nil
}

// Events reports how many event instances have been ingested so far.
func (ri *RankIngestor) Events() int {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.events
}

// Bytes reports how many stream bytes have been accepted so far.
func (ri *RankIngestor) Bytes() int64 {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.bytes
}
