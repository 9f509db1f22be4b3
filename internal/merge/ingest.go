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
// match-or-append index the reduction uses. Sequitur inference runs over
// a stream as it arrives; an in-memory feed's events are inferred at
// commit instead, right after the reduction has taken the leaf tables.
// Commit (Build) runs the pairwise tree reduction over the per-rank tables
// and hands everything after to assemble, so the output depends on
// neither the chunk size nor the rank-arrival interleaving: a streamed
// session and batch Build over the equivalent trace produce the same
// bytes.
//
// The one subtlety is which ids inference runs over. Fully-globalized ids
// do not exist until every rank has arrived, so each rank's builder is fed
// its *leaf-canonical* ids — the ids of the rank's own leaf table — and
// globalization is deferred to commit. Sequitur is invariant under
// injective relabeling of terminals (its decisions depend only on the
// equality pattern of the token stream), so when the rank's leaf→root id
// map is injective the leaf grammar relabels in place to the grammar of
// the root-id sequence. The map can fail to be injective only when the
// inner tree merges collapse two of the rank's distinct computation
// clusters into one (coarser threshold, cross-rank representatives); that
// rank's sequence is then re-inferred over root ids from its leaf
// grammar's expansion. Either way the grammar is the one inference over
// root ids would give — so batch Build, which still holds every rank's
// events, infers only one rank per class of identical root sequences and
// shares that grammar (rankClasses).

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

	// reinferred counts ranks whose grammars went through the expand +
	// re-infer fallback at Build (leaf→root map not injective). Exposed for
	// tests and diagnostics; byte-equality holds either way.
	reinferred atomic.Int32
	// classes counts the rank classes Build inferred: one per distinct
	// event sequence in batch, one per rank for a stream (tests read it).
	classes int
}

// Reinferred reports how many ranks took the re-inference fallback during
// Build (0 until Build runs). Only a class representative is inferred, so
// in batch it counts representatives, not the members sharing their
// grammars.
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
		opts:     opts,
		platform: platformName,
		impl:     implName,
		ranks:    make([]*RankIngestor, numRanks),
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
			b:    sequitur.NewWithOptions(!opts.DisableRunLength),
		}
	}
	return in
}

// batchIngest opens the private session batch Build commits through: every
// rank of tr is fed in memory — one chunk per rank, no encoding — in
// parallel, since ranks are independent until commit. The feed interns
// the rank's tables; Build infers its events once the reduction has taken
// those tables, so a batch merge never holds P leaf tables while it
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
// the pairwise tree reduction over the per-rank leaf tables, relabels (or
// where the reduction collapsed a rank's terminals, re-infers) each
// rank class's grammar onto global ids, and assembles the Program. The
// session's spill file is released before Build returns, success or
// not; Build can run at most once.
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
		if ri.b != nil && in.src == nil {
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

	// Per-class globalization of the inferred grammars: relabel when
	// leaf→root is injective for the rank, re-infer over the mapped
	// sequence when it is not (see the file comment). Only each rank
	// class's representative is inferred; the members share its grammar.
	rep := in.rankClasses(root)
	var reps []int
	for r, c := range rep {
		if c == r {
			reps = append(reps, r)
		}
	}
	in.classes = len(reps)
	grammars := make([]*sequitur.Grammar, len(in.ranks))
	parfor(len(reps), par, func(k int) {
		r := reps[k]
		ri := in.ranks[r]
		if in.src != nil { // the in-memory feed's events (see batchIngest)
			ri.append(in.src.Ranks[r].Events)
			ri.end()
		}
		rm := root.recMaps[r].S // leaf id -> root id
		g := ri.g
		if injective(rm, len(root.records)) {
			for _, rule := range g.Rules {
				for i := range rule {
					if !rule[i].IsRule {
						rule[i].Ref = rm[rule[i].Ref]
					}
				}
			}
		} else {
			in.reinferred.Add(1)
			seq := g.Expand()
			for i, leaf := range seq {
				seq[i] = rm[leaf]
			}
			b := sequitur.NewWithOptions(!opts.DisableRunLength)
			b.AppendAll(seq)
			g = b.Grammar()
		}
		grammars[r] = g
	})
	for r, c := range rep {
		if c != r { // a batch class member: its events were never fed
			ri := in.ranks[r]
			ri.b = nil
			ri.events = len(in.src.Ranks[r].Events)
			grammars[r] = grammars[c]
		}
		if n := grammars[r].ExpandedLen(); n != in.ranks[r].events {
			return nil, fmt.Errorf("merge: rank %d grammar expands to %d events, ingested %d", r, n, in.ranks[r].events)
		}
	}

	// The losslessness self-check's reference. A streamed session retains
	// no event sequences — bounding that memory is the point — so it
	// compares against each grammar's own expansion over root ids; the
	// ExpandedLen gate above pins every grammar to its ingested event
	// count, so the check still catches any divergence from the depth
	// merge onward. Batch Build still holds the trace, so it compares
	// against the rank's own events mapped onto root ids.
	lossless := func(rank int, got []int) bool { return slices.Equal(got, grammars[rank].Expand()) }
	if in.src != nil {
		lossless = func(rank int, got []int) bool {
			rm, wire := root.recMaps[rank].S, in.ranks[rank].lt.wireRec
			events := in.src.Ranks[rank].Events
			if len(got) != len(events) {
				return false
			}
			for i, id := range events {
				if got[i] != rm[wire[id]] {
					return false
				}
			}
			return true
		}
	}
	return assemble(len(in.ranks), in.platform, in.impl,
		root.records, root.clusters, grammars, rep, lossless, opts)
}

// rankClasses maps each rank to its class representative: the lowest rank
// whose event sequence over root ids equals its own (DESIGN.md §15). SPMD
// ranks mostly run the same sequence, and Sequitur's grammar is a function
// of the sequence, so one inference serves the whole class. Classes are
// keyed on root ids, never leaf ids: leaf ids are per-rank, so equal leaf
// sequences can name different records. Only batch Build holds the
// sequences; a streamed session inferred every rank during its feed, so
// each of its ranks is its own class.
func (in *Ingest) rankClasses(root *partial) []int {
	rep := make([]int, len(in.ranks))
	for r := range rep {
		rep[r] = r
	}
	if in.src == nil {
		return rep
	}
	// sameSeq compares two ranks' sequences over root ids, read through
	// each rank's wire and leaf→root maps without materializing either.
	sameSeq := func(a, b int) bool {
		ea, eb := in.src.Ranks[a].Events, in.src.Ranks[b].Events
		if len(ea) != len(eb) {
			return false
		}
		rma, wa := root.recMaps[a].S, in.ranks[a].lt.wireRec
		rmb, wb := root.recMaps[b].S, in.ranks[b].lt.wireRec
		for i := range ea {
			if rma[wa[ea[i]]] != rmb[wb[eb[i]]] {
				return false
			}
		}
		return true
	}
	hashes := make([]uint64, len(in.ranks))
	parfor(len(in.ranks), in.opts.Parallelism, func(r int) {
		rm, wire := root.recMaps[r].S, in.ranks[r].lt.wireRec
		h := uint64(14695981039346656037) // FNV-1a over root ids
		for _, id := range in.src.Ranks[r].Events {
			h = (h ^ uint64(rm[wire[id]])) * 1099511628211
		}
		hashes[r] = h
	})
	// Assignment is serial in rank order, so a class's representative is
	// its lowest rank at every Parallelism. The buckets are only looked
	// up, never iterated, and a hash match is confirmed element by element.
	buckets := map[uint64][]int{}
	for r := range in.ranks {
		h := hashes[r]
		for _, c := range buckets[h] {
			if sameSeq(c, r) {
				rep[r] = c
				break
			}
		}
		if rep[r] == r {
			buckets[h] = append(buckets[h], r)
		}
	}
	return rep
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

// RankIngestor consumes one rank's chunk stream: decode, intern, infer —
// all inline with Feed, so inference genuinely runs during ingest. Safe
// for use by one uploader at a time; concurrent Feeds for the same rank
// serialize on the ingestor's lock (arrival order is the byte order).
type RankIngestor struct {
	mu   sync.Mutex
	in   *Ingest
	rank int
	err  error

	dec *trace.ChunkDec
	lt  *leafTable
	// b infers over leaf ids until the stream ends; end then swaps it for
	// its grammar g, so ended ranks hold no builder. b == nil means ended
	// (for an in-memory feed, that happens at Build).
	b *sequitur.Builder
	g *sequitur.Grammar

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
// and appends its events, mapped to leaf ids, to the Sequitur builder.
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

// append feeds events (ids in the source's local table) to the builder.
func (ri *RankIngestor) append(events []int) {
	for _, id := range events {
		ri.b.Append(ri.lt.wireRec[id])
	}
	ri.events += len(events)
}

// end closes the rank's stream: its grammar is final, so the builder goes.
func (ri *RankIngestor) end() {
	ri.g = ri.b.Grammar()
	ri.b = nil
}

// Ended reports whether the rank's stream is complete (end frame seen).
func (ri *RankIngestor) Ended() bool {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.b == nil
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
