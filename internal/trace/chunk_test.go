package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
)

// itemString canonicalizes one decoded item so two decodes can be
// compared as transcripts.
func itemString(it ChunkItem) string {
	switch it.Tag {
	case ChunkTagHeader:
		return fmt.Sprintf("H%d", it.Rank)
	case ChunkTagCluster:
		return fmt.Sprintf("C%v|%v|%d|%g", it.Cluster.Rep, it.Cluster.Sum, it.Cluster.N, it.Cluster.TimeSum)
	case ChunkTagRecord:
		var e Enc
		EncodeRecord(&e, it.Record)
		return fmt.Sprintf("R%x", e.Bytes())
	case ChunkTagEvents:
		return fmt.Sprintf("E%v", it.Events)
	case ChunkTagEnd:
		return fmt.Sprintf("Z%+v", it.Totals)
	}
	return fmt.Sprintf("?%d", it.Tag)
}

// decodeTranscript feeds stream into a fresh decoder in pieces cut at the
// given chunk size (0 = one shot) and returns the transcript of emitted
// items plus the decoder's final state.
func decodeTranscript(stream []byte, chunkSize int) (items []string, err error, d *ChunkDec) {
	d = NewChunkDec()
	emit := func(it ChunkItem) error {
		items = append(items, itemString(it))
		return nil
	}
	for len(stream) > 0 {
		n := chunkSize
		if n <= 0 || n > len(stream) {
			n = len(stream)
		}
		if err = d.Feed(stream[:n], emit); err != nil {
			return
		}
		stream = stream[n:]
	}
	// An empty final Feed must be a no-op (uploaders may flush).
	err = d.Feed(nil, emit)
	return
}

// The decoder must see the identical item stream however the bytes are
// split — the chunk-boundary independence the streaming ingest contract
// stands on.
func TestChunkSplitIndependence(t *testing.T) {
	tr, _ := traceRing(t, 4, 4)
	for _, rt := range tr.Ranks {
		stream := ChunkEncodeRank(rt)
		ref, err, refDec := decodeTranscript(stream, 0)
		if err != nil {
			t.Fatalf("rank %d: whole-buffer decode: %v", rt.Rank, err)
		}
		if !refDec.Ended() {
			t.Fatalf("rank %d: whole-buffer decode did not end", rt.Rank)
		}
		for _, size := range []int{1, 2, 3, 5, 7, 16, 64, 1024} {
			items, err, d := decodeTranscript(stream, size)
			if err != nil {
				t.Fatalf("rank %d chunk %d: %v", rt.Rank, size, err)
			}
			if !d.Ended() || d.Buffered() != 0 {
				t.Fatalf("rank %d chunk %d: ended=%t buffered=%d", rt.Rank, size, d.Ended(), d.Buffered())
			}
			if strings.Join(items, "\n") != strings.Join(ref, "\n") {
				t.Fatalf("rank %d chunk %d: item transcript differs from whole-buffer decode", rt.Rank, size)
			}
			if d.Counts() != refDec.Counts() {
				t.Fatalf("rank %d chunk %d: counts %+v != %+v", rt.Rank, size, d.Counts(), refDec.Counts())
			}
		}
	}
}

// Decoding a stream and re-interning what it defines must reconstruct the
// rank exactly: same table keys, same clusters, same event sequence.
func TestChunkRoundTripReconstructsRank(t *testing.T) {
	tr, _ := traceRing(t, 5, 3)
	for _, rt := range tr.Ranks {
		var clusters []*Cluster
		var table []*Record
		var events []int
		d := NewChunkDec()
		err := d.Feed(ChunkEncodeRank(rt), func(it ChunkItem) error {
			switch it.Tag {
			case ChunkTagCluster:
				clusters = append(clusters, it.Cluster)
			case ChunkTagRecord:
				table = append(table, it.Record)
			case ChunkTagEvents:
				events = append(events, it.Events...)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("rank %d: %v", rt.Rank, err)
		}
		if rank, ok := d.Rank(); !ok || rank != rt.Rank {
			t.Fatalf("decoded rank %d (ok=%t), want %d", rank, ok, rt.Rank)
		}
		if len(clusters) != len(rt.Clusters) || len(table) != len(rt.Table) || len(events) != len(rt.Events) {
			t.Fatalf("rank %d: decoded %d/%d/%d clusters/records/events, want %d/%d/%d", rt.Rank,
				len(clusters), len(table), len(events), len(rt.Clusters), len(rt.Table), len(rt.Events))
		}
		for i, c := range clusters {
			if *c != *rt.Clusters[i] {
				t.Fatalf("rank %d cluster %d: %+v != %+v", rt.Rank, i, *c, *rt.Clusters[i])
			}
		}
		for i, r := range table {
			if r.KeyString() != rt.Table[i].KeyString() {
				t.Fatalf("rank %d record %d key mismatch", rt.Rank, i)
			}
		}
		for i, id := range events {
			if id != rt.Events[i] {
				t.Fatalf("rank %d event %d: %d != %d", rt.Rank, i, id, rt.Events[i])
			}
		}
	}
}

// A rank whose table holds records (and clusters) no event references —
// legal in hand-built traces — must still round-trip: the encoder flushes
// tail definitions before the end frame.
func TestChunkEncodeTailDefinitions(t *testing.T) {
	rt := &RankTrace{
		Rank: 3,
		Table: []*Record{
			{Func: mpicall.Barrier, CommPool: 1},
			{Func: mpicall.Compute, ComputeCluster: 0},
			{Func: mpicall.Compute, ComputeCluster: 1}, // never referenced
		},
		Clusters: []*Cluster{
			{Rep: perfmodel.Counters{1: 100}, N: 2},
			{Rep: perfmodel.Counters{1: 900}, N: 1}, // never referenced
		},
		Events: []int{0, 1, 0},
	}
	var nRec, nCl, nEv int
	d := NewChunkDec()
	if err := d.Feed(ChunkEncodeRank(rt), func(it ChunkItem) error {
		switch it.Tag {
		case ChunkTagRecord:
			nRec++
		case ChunkTagCluster:
			nCl++
		case ChunkTagEvents:
			nEv += len(it.Events)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if nRec != 3 || nCl != 2 || nEv != 3 {
		t.Fatalf("decoded %d records %d clusters %d events, want 3/2/3", nRec, nCl, nEv)
	}
	if !d.Ended() {
		t.Fatal("stream did not end")
	}
}

func TestChunkDecodeRejections(t *testing.T) {
	tr, _ := traceRing(t, 2, 2)
	valid := ChunkEncodeRank(tr.Ranks[0])

	feedAll := func(stream []byte) error {
		d := NewChunkDec()
		return d.Feed(stream, func(ChunkItem) error { return nil })
	}

	t.Run("corrupt byte fails CRC or validation", func(t *testing.T) {
		for _, pos := range []int{9, len(valid) / 2, len(valid) - 3} {
			bad := bytes.Clone(valid)
			bad[pos] ^= 0x40
			if err := feedAll(bad); err == nil {
				t.Fatalf("corruption at byte %d not detected", pos)
			}
		}
	})

	t.Run("bytes after end frame", func(t *testing.T) {
		if err := feedAll(append(bytes.Clone(valid), 0x01)); err == nil {
			t.Fatal("trailing byte after end frame accepted")
		}
		d := NewChunkDec()
		if err := d.Feed(valid, func(ChunkItem) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := d.Feed([]byte{0x01}, func(ChunkItem) error { return nil }); err == nil {
			t.Fatal("byte fed after end frame accepted")
		}
	})

	t.Run("oversized frame length", func(t *testing.T) {
		huge := appendChunkFrame(nil, make([]byte, 16))
		huge[0], huge[1] = 0xff, 0xff
		if err := feedAll(huge); err == nil {
			t.Fatal("oversized frame length accepted")
		}
	})

	t.Run("first frame must be header", func(t *testing.T) {
		var e Enc
		e.Uvarint(ChunkTagEnd)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		if err := feedAll(appendChunkFrame(nil, e.Bytes())); err == nil {
			t.Fatal("headerless stream accepted")
		}
	})

	t.Run("event referencing undefined record", func(t *testing.T) {
		var e Enc
		e.Uvarint(ChunkTagHeader)
		e.Str(chunkMagic)
		e.Int(0)
		stream := appendChunkFrame(nil, e.Bytes())
		e = Enc{}
		e.Uvarint(ChunkTagEvents)
		e.Uvarint(1)
		e.Uvarint(5)
		stream = appendChunkFrame(stream, e.Bytes())
		if err := feedAll(stream); err == nil {
			t.Fatal("forward event reference accepted")
		}
	})

	t.Run("end totals mismatch", func(t *testing.T) {
		var e Enc
		e.Uvarint(ChunkTagHeader)
		e.Str(chunkMagic)
		e.Int(0)
		stream := appendChunkFrame(nil, e.Bytes())
		e = Enc{}
		e.Uvarint(ChunkTagEnd)
		e.Uvarint(9)
		e.Uvarint(0)
		e.Uvarint(0)
		stream = appendChunkFrame(stream, e.Bytes())
		if err := feedAll(stream); err == nil {
			t.Fatal("lying end totals accepted")
		}
	})

	t.Run("emit error poisons decoder", func(t *testing.T) {
		d := NewChunkDec()
		sentinel := fmt.Errorf("consumer said no")
		if err := d.Feed(valid, func(ChunkItem) error { return sentinel }); err != sentinel {
			t.Fatalf("emit error not propagated: %v", err)
		}
		if err := d.Feed(valid, func(ChunkItem) error { return nil }); err == nil {
			t.Fatal("poisoned decoder accepted more bytes")
		}
	})
}

// fuzzSeedStreams builds the seed corpus from golden-path traces: every
// rank stream of a small ring app plus a hand-built rank with tail
// definitions.
func fuzzSeedStreams(f *testing.F) [][]byte {
	f.Helper()
	rec := NewRecorder(3, Config{})
	w := mpi.NewWorld(mpi.Config{Size: 3, Interceptor: rec})
	if _, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		for it := 0; it < 3; it++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e6, Loads: 4e5})
			r.Sendrecv(c, (r.Rank()+1)%r.Size(), 0, 512, (r.Rank()+2)%r.Size(), 0)
			r.Allreduce(c, 8, mpi.OpSum)
		}
	}); err != nil {
		f.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	var streams [][]byte
	for _, rt := range tr.Ranks {
		streams = append(streams, ChunkEncodeRank(rt))
	}
	streams = append(streams, ChunkEncodeRank(&RankTrace{
		Rank:   0,
		Table:  []*Record{{Func: mpicall.Barrier, CommPool: 1}},
		Events: []int{0, 0},
	}))
	return streams
}

// FuzzChunkDecode is the chunk-boundary differential fuzz: for arbitrary
// bytes and arbitrary split points, the split delivery must behave
// exactly like the whole-buffer delivery — same items, same acceptance —
// and a prefix of an error-free stream must decode cleanly ("need more")
// to a prefix of the full transcript. And nothing may ever panic.
func FuzzChunkDecode(f *testing.F) {
	for _, stream := range fuzzSeedStreams(f) {
		f.Add(stream, uint16(1), uint16(9))
		f.Add(stream, uint16(len(stream)/2), uint16(len(stream)-1))
		// Corrupted variants steer the fuzzer toward the failure paths.
		bad := bytes.Clone(stream)
		bad[len(bad)/3] ^= 0xff
		f.Add(bad, uint16(3), uint16(17))
	}
	f.Add([]byte{}, uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, s1, s2 uint16) {
		whole, wholeErr, wholeDec := decodeTranscript(data, 0)

		// Split delivery at two fuzz-chosen cut points.
		a, b := int(s1), int(s2)
		if len(data) > 0 {
			a, b = a%len(data), b%len(data)
		} else {
			a, b = 0, 0
		}
		if a > b {
			a, b = b, a
		}
		d := NewChunkDec()
		var split []string
		var splitErr error
		for _, piece := range [][]byte{data[:a], data[a:b], data[b:]} {
			splitErr = d.Feed(piece, func(it ChunkItem) error {
				split = append(split, itemString(it))
				return nil
			})
			if splitErr != nil {
				break
			}
		}

		if (wholeErr == nil) != (splitErr == nil) {
			t.Fatalf("whole err=%v, split err=%v — chunking changed acceptance", wholeErr, splitErr)
		}
		if wholeErr == nil {
			if strings.Join(whole, "\n") != strings.Join(split, "\n") {
				t.Fatal("split transcript differs from whole-buffer transcript")
			}
			if d.Ended() != wholeDec.Ended() || d.Counts() != wholeDec.Counts() {
				t.Fatalf("split state (ended=%t %+v) != whole state (ended=%t %+v)",
					d.Ended(), d.Counts(), wholeDec.Ended(), wholeDec.Counts())
			}
			// Prefix decode of a clean stream must be clean and emit a
			// prefix of the full transcript.
			prefix, prefixErr, _ := decodeTranscript(data[:b], 3)
			if prefixErr != nil {
				t.Fatalf("prefix of a clean stream errored: %v", prefixErr)
			}
			if len(prefix) > len(whole) || strings.Join(prefix, "\n") != strings.Join(whole[:len(prefix)], "\n") {
				t.Fatal("prefix transcript is not a prefix of the whole transcript")
			}
		} else {
			// Errors are sticky on both.
			if err := d.Feed([]byte{1}, func(ChunkItem) error { return nil }); err == nil {
				t.Fatal("split decoder forgot its error")
			}
		}
	})
}
