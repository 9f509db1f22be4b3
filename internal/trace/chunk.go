package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"siesta/internal/perfmodel"
)

// This file is the streaming ingest wire format: one rank's trace as a
// self-delimiting sequence of CRC frames that can be decoded from any
// partial prefix. The framing is the durable journal's record format
// (DESIGN.md §11) — uint32 BE payload length, uint32 BE CRC-32 IEEE over
// the payload, payload — so torn uploads are detected the same way torn
// WAL tails are. Unlike the WAL, a CRC mismatch here is a hard error, not
// a truncation point: an upload chunk arrived corrupted and the client
// must restart the session.
//
// The stream is definition-before-use: a frame defining a cluster or
// record always precedes the first events frame referencing it, and
// definitions appear in dense id order (cluster 0, 1, 2, …; record 0, 1,
// 2, …). Ids are stream-local ("wire" ids); the consumer interns them
// into whatever table it is building. Crucially the frame sequence is a
// pure function of the rank's content — how a client later splits the
// byte stream into upload chunks can never change what a decoder sees.
//
//	stream := header (cluster | record | events)* end
//	header := tag=0 magic rank
//	cluster:= tag=1 Rep[i] Sum[i]… N TimeSum
//	record := tag=2 <EncodeRecord fields>
//	events := tag=3 count id…          (ids are wire record ids)
//	end    := tag=4 events records clusters   (totals, validated)

const chunkMagic = "SIESTA-CHUNK1"

// Frame tags, also the ChunkItem.Tag values consumers switch on.
const (
	ChunkTagHeader  = 0
	ChunkTagCluster = 1
	ChunkTagRecord  = 2
	ChunkTagEvents  = 3
	ChunkTagEnd     = 4
)

const (
	chunkFrameHdr = 8 // uint32 length + uint32 CRC, as in internal/durable
	// maxChunkFrame bounds one frame's payload. Event frames hold at most
	// chunkEventBatch varints and record frames one terminal; 16 MiB (the
	// HTTP body limit) is far above anything a valid encoder emits, while
	// still refusing hostile length fields before allocation.
	maxChunkFrame = 16 << 20
	// chunkEventBatch is how many event ids one events frame carries:
	// large enough to amortize the 8-byte frame header, small enough that
	// tiny upload chunks still make progress frame by frame.
	chunkEventBatch = 512
)

// appendChunkFrame wraps one payload in the length+CRC framing.
func appendChunkFrame(out []byte, payload []byte) []byte {
	var hdr [chunkFrameHdr]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

// ChunkEncodeRank serializes one rank's trace as a chunk stream. Cluster
// and record definitions are emitted in dense id order, each immediately
// before the first events frame that needs it, with any unreferenced
// tail definitions flushed before the end frame — so the stream an
// encoder produces for a given RankTrace is unique, and a consumer that
// interns definitions in arrival order reproduces the rank's table and
// cluster order exactly.
func ChunkEncodeRank(rt *RankTrace) []byte {
	var out []byte
	var e Enc

	frame := func() {
		out = appendChunkFrame(out, e.Bytes())
		e = Enc{}
	}

	e.Uvarint(ChunkTagHeader)
	e.Str(chunkMagic)
	e.Int(rt.Rank)
	frame()

	nextCl, nextRec := 0, 0
	emitCluster := func(cl *Cluster) {
		e.Uvarint(ChunkTagCluster)
		for i := 0; i < int(perfmodel.NumMetrics); i++ {
			e.Float(cl.Rep[i])
			e.Float(cl.Sum[i])
		}
		e.Int(cl.N)
		e.Float(cl.TimeSum)
		frame()
	}
	// emitDefsThrough defines records [nextRec, id] (and any clusters they
	// reference) in dense order.
	emitDefsThrough := func(id int) {
		for ; nextRec <= id; nextRec++ {
			r := rt.Table[nextRec]
			if r.IsCompute() {
				for ; nextCl <= r.ComputeCluster; nextCl++ {
					emitCluster(rt.Clusters[nextCl])
				}
			}
			e.Uvarint(ChunkTagRecord)
			EncodeRecord(&e, r)
			frame()
		}
	}

	batch := make([]int, 0, chunkEventBatch)
	flushEvents := func() {
		if len(batch) == 0 {
			return
		}
		e.Uvarint(ChunkTagEvents)
		e.Uvarint(uint64(len(batch)))
		for _, id := range batch {
			e.Uvarint(uint64(id))
		}
		frame()
		batch = batch[:0]
	}

	for _, id := range rt.Events {
		if id >= nextRec {
			flushEvents() // definitions must precede the frame that uses them
			emitDefsThrough(id)
		}
		batch = append(batch, id)
		if len(batch) == chunkEventBatch {
			flushEvents()
		}
	}
	flushEvents()
	// Tail definitions no event referenced (possible in hand-built traces)
	// still belong to the rank; clusters first so records can point at them.
	for ; nextCl < len(rt.Clusters); nextCl++ {
		emitCluster(rt.Clusters[nextCl])
	}
	emitDefsThrough(len(rt.Table) - 1)

	e.Uvarint(ChunkTagEnd)
	e.Uvarint(uint64(len(rt.Events)))
	e.Uvarint(uint64(len(rt.Table)))
	e.Uvarint(uint64(len(rt.Clusters)))
	frame()
	return out
}

// ChunkItem is one decoded stream element, handed to the Feed callback.
// The pointers and the Events slice are valid only during the callback:
// Events in particular aliases the decoder's scratch buffer.
type ChunkItem struct {
	Tag     int
	Rank    int      // header
	Cluster *Cluster // cluster definition (callback may keep it)
	Record  *Record  // record definition (callback may keep it)
	Events  []int    // wire record ids; valid only during the callback
	Totals  ChunkTotals
}

// ChunkTotals is the end frame's validation payload.
type ChunkTotals struct {
	Events, Records, Clusters int
}

// ChunkDec incrementally decodes one rank's chunk stream. Feed it byte
// slices in arrival order — split anywhere, even mid-varint — and it
// emits each complete frame's item exactly once, buffering partial
// frames until more bytes arrive. Errors are sticky: a malformed frame
// poisons the decoder (and therefore the upload session it serves).
type ChunkDec struct {
	buf     []byte
	started bool
	ended   bool
	rank    int
	err     error

	nClusters int
	nRecords  int
	nEvents   int

	evScratch []int
}

// NewChunkDec returns a decoder for one rank stream.
func NewChunkDec() *ChunkDec { return &ChunkDec{rank: -1} }

// Rank returns the stream's rank once the header frame has been decoded.
func (d *ChunkDec) Rank() (int, bool) { return d.rank, d.started }

// Ended reports whether the end frame has been decoded: the stream is
// complete and any further bytes are an error.
func (d *ChunkDec) Ended() bool { return d.ended }

// Buffered reports the bytes held for a not-yet-complete frame.
func (d *ChunkDec) Buffered() int { return len(d.buf) }

// Counts reports how many events, records, and clusters have been
// decoded so far.
func (d *ChunkDec) Counts() ChunkTotals {
	return ChunkTotals{Events: d.nEvents, Records: d.nRecords, Clusters: d.nClusters}
}

func (d *ChunkDec) fail(format string, args ...any) error {
	d.err = fmt.Errorf("trace: chunk: "+format, args...)
	return d.err
}

// Feed appends chunk to the stream and emits every now-complete frame.
// A nil error means all complete frames were consumed and any remainder
// is buffered awaiting more bytes ("need more"). An emit error aborts
// and poisons the decoder like a malformed frame does.
func (d *ChunkDec) Feed(chunk []byte, emit func(ChunkItem) error) error {
	if d.err != nil {
		return d.err
	}
	d.buf = append(d.buf, chunk...)
	off := 0
	for {
		rest := d.buf[off:]
		if len(rest) < chunkFrameHdr {
			break
		}
		n := binary.BigEndian.Uint32(rest[:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if n > maxChunkFrame {
			return d.fail("frame length %d exceeds limit", n)
		}
		if int(n) > len(rest)-chunkFrameHdr {
			break // incomplete frame: need more bytes
		}
		payload := rest[chunkFrameHdr : chunkFrameHdr+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return d.fail("frame CRC mismatch")
		}
		if err := d.frame(payload, emit); err != nil {
			return err
		}
		off += chunkFrameHdr + int(n)
	}
	// Compact the consumed prefix so the buffer holds at most one partial
	// frame between Feeds.
	if off > 0 {
		d.buf = append(d.buf[:0], d.buf[off:]...)
	}
	// Anything after the end frame is an error even while incomplete —
	// checking here (not at Feed entry) keeps the whole-buffer and split
	// deliveries of the same bytes in identical states, which the fuzz
	// harness relies on.
	if d.ended && len(d.buf) > 0 {
		return d.fail("%d bytes after end frame", len(d.buf))
	}
	return nil
}

// frame decodes and emits one complete, CRC-verified frame payload.
func (d *ChunkDec) frame(payload []byte, emit func(ChunkItem) error) error {
	if d.ended {
		return d.fail("frame after end frame")
	}
	dec := NewDec(payload)
	tag, err := dec.Uvarint()
	if err != nil {
		return d.fail("frame tag: %v", err)
	}
	if !d.started && tag != ChunkTagHeader {
		return d.fail("first frame has tag %d, want header", tag)
	}
	it := ChunkItem{Tag: int(tag)}
	switch tag {
	case ChunkTagHeader:
		if d.started {
			return d.fail("duplicate header frame")
		}
		magic, err := dec.Str()
		if err != nil || magic != chunkMagic {
			return d.fail("bad magic %q: %v", magic, err)
		}
		if it.Rank, err = dec.Int(); err != nil || it.Rank < 0 {
			return d.fail("bad rank %d: %v", it.Rank, err)
		}
		d.started, d.rank = true, it.Rank
	case ChunkTagCluster:
		cl := &Cluster{}
		for i := 0; i < int(perfmodel.NumMetrics); i++ {
			if cl.Rep[i], err = dec.Float(); err != nil {
				return d.fail("cluster rep: %v", err)
			}
			if cl.Sum[i], err = dec.Float(); err != nil {
				return d.fail("cluster sum: %v", err)
			}
		}
		if cl.N, err = dec.Int(); err != nil || cl.N < 0 {
			return d.fail("cluster count %d: %v", cl.N, err)
		}
		if cl.TimeSum, err = dec.Float(); err != nil {
			return d.fail("cluster time: %v", err)
		}
		it.Cluster = cl
		d.nClusters++
	case ChunkTagRecord:
		r := &Record{}
		if err := DecodeRecord(dec, r); err != nil {
			return d.fail("record: %v", err)
		}
		if r.IsCompute() && (r.ComputeCluster < 0 || r.ComputeCluster >= d.nClusters) {
			return d.fail("record references undefined cluster %d of %d", r.ComputeCluster, d.nClusters)
		}
		it.Record = r
		d.nRecords++
	case ChunkTagEvents:
		n, err := dec.Uvarint()
		if err != nil {
			return d.fail("events count: %v", err)
		}
		if err := dec.boundedLen(int(n)); err != nil {
			return d.fail("events: %v", err)
		}
		if cap(d.evScratch) < int(n) {
			d.evScratch = make([]int, n)
		}
		ev := d.evScratch[:n]
		for i := range ev {
			v, err := dec.Uvarint()
			if err != nil {
				return d.fail("event id: %v", err)
			}
			if int(v) >= d.nRecords {
				return d.fail("event references undefined record %d of %d", v, d.nRecords)
			}
			ev[i] = int(v)
		}
		it.Events = ev
		d.nEvents += int(n)
	case ChunkTagEnd:
		var tot ChunkTotals
		readTot := func(dst *int) {
			if err == nil {
				var v uint64
				v, err = dec.Uvarint()
				*dst = int(v)
			}
		}
		readTot(&tot.Events)
		readTot(&tot.Records)
		readTot(&tot.Clusters)
		if err != nil {
			return d.fail("end totals: %v", err)
		}
		if tot.Events != d.nEvents || tot.Records != d.nRecords || tot.Clusters != d.nClusters {
			return d.fail("end totals %+v disagree with stream counts %+v", tot, d.Counts())
		}
		it.Totals = tot
		d.ended = true
	default:
		return d.fail("unknown frame tag %d", tag)
	}
	if dec.Remaining() != 0 {
		return d.fail("frame tag %d has %d trailing bytes", tag, dec.Remaining())
	}
	if err := emit(it); err != nil {
		d.err = err
		return err
	}
	return nil
}
