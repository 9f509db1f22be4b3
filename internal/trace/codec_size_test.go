package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
)

func mpiWorldForBench(size int, rec *Recorder) *mpi.World {
	return mpi.NewWorld(mpi.Config{Size: size, Interceptor: rec})
}

func ringApp(size, iters int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		for it := 0; it < iters; it++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e6, Loads: 4e5, Stores: 2e5, Branches: 1e5})
			rq := r.Irecv(c, prev, 0)
			r.Send(c, next, 0, 1024)
			r.Wait(rq)
			r.Allreduce(c, 8, mpi.OpSum)
		}
	}
}

// sampleRecords covers every field class the codec writes: defaults, long
// slices, strings, negative and wildcard sentinels.
func sampleRecords() []*Record {
	return []*Record{
		{Func: mpicall.Send, DestRel: 3, Tag: 7, Bytes: 4096,
			SrcRel: NoRank, RecvTag: NoRank, Root: NoRank, NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.Waitall, ReqPools: []int{0, 1, 2, 3, 4, 5, 6, 7},
			DestRel: NoRank, SrcRel: NoRank, Tag: NoRank, RecvTag: NoRank,
			Root: NoRank, NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.Alltoallv, Counts: []int{128, 0, 131072, 64},
			DestRel: NoRank, SrcRel: NoRank, Tag: NoRank, RecvTag: NoRank,
			Root: NoRank, NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.Reduce, Root: 0, Op: "MPI_SUM",
			DestRel: NoRank, SrcRel: NoRank, Tag: NoRank, RecvTag: NoRank,
			NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.FileWriteAt, FilePool: 2, OffsetRel: -65536,
			FileName: "checkpoint.dat", DestRel: NoRank, SrcRel: NoRank,
			Tag: NoRank, RecvTag: NoRank, Root: NoRank, NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.Recv, SrcRel: Wildcard, Tag: Wildcard,
			DestRel: NoRank, RecvTag: NoRank, Root: NoRank, NewCommPool: -1, ReqPool: -1},
		{Func: mpicall.Compute, ComputeCluster: 11,
			DestRel: NoRank, SrcRel: NoRank, Tag: NoRank, RecvTag: NoRank,
			Root: NoRank, NewCommPool: -1, ReqPool: -1},
	}
}

// TestRecordSizeExact pins recordSize against what EncodeRecord actually
// writes, field class by field class.
func TestRecordSizeExact(t *testing.T) {
	for i, r := range sampleRecords() {
		var e Enc
		EncodeRecord(&e, r)
		if got, want := recordSize(r), e.Len(); got != want {
			t.Errorf("record %d (%s): recordSize = %d, encoded = %d", i, r.Func, got, want)
		}
	}
}

// TestTraceEncodeExactSize: the sizing pass must predict the output to the
// byte, and the returned slice must have no slack capacity beyond what one
// upfront allocation produced.
func TestTraceEncodeExactSize(t *testing.T) {
	tr, _ := traceRing(t, 4, 3)
	out := tr.Encode()
	// Re-encode through a fresh, non-preallocated encoder: byte equality
	// proves the grown path and the sized path write identically.
	var e Enc
	e.Str("SIESTA-TRACE1")
	e.Int(tr.NumRanks)
	e.Str(tr.Platform)
	e.Str(tr.Impl)
	// The prefix is enough to catch a sizing-pass drift: a wrong total
	// would surface as reallocation (caught below) since bytes.Buffer
	// only rounds up when a write outgrows the initial Grow.
	if !bytes.HasPrefix(out, e.Bytes()) {
		t.Fatal("encoded header mismatch")
	}
	rt, err := Decode(out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rt.TotalEvents() != tr.TotalEvents() {
		t.Fatalf("round trip lost events: %d vs %d", rt.TotalEvents(), tr.TotalEvents())
	}
}

// TestTraceEncodeAllocs pins Encode's allocation count: one sizing pass,
// one buffer. The bound is 2 (bytes.Buffer bookkeeping included) — if this
// regresses, Encode went back to growing its output incrementally.
func TestTraceEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	tr, _ := traceRing(t, 4, 3)
	tr.Encode() // warm any lazy state
	allocs := testing.AllocsPerRun(20, func() {
		tr.Encode()
	})
	if allocs > 2 {
		t.Errorf("Trace.Encode allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestRawSizeAllocFree: the sizing table now comes from the buffer pool.
func TestRawSizeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	tr, _ := traceRing(t, 4, 3)
	tr.RawSize() // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		tr.RawSize()
	})
	if allocs > 0 {
		t.Errorf("RawSize allocates %.1f times per call, want 0", allocs)
	}
}

// TestAppendKeyMatchesLegacyFormat re-derives the key with fmt (the
// pre-optimization rendering) and requires byte equality, so the interning
// scheme never silently forks.
func TestAppendKeyMatchesLegacyFormat(t *testing.T) {
	for i, r := range sampleRecords() {
		var b strings.Builder
		b.WriteString(r.Func.String())
		fmt.Fprintf(&b, "|d%d|s%d|t%d|n%d|rt%d|r%d|o%s|c%d|nc%d|q%d",
			r.DestRel, r.SrcRel, r.Tag, r.Bytes, r.RecvTag, r.Root, r.Op,
			r.CommPool, r.NewCommPool, r.ReqPool)
		if len(r.ReqPools) > 0 {
			b.WriteString("|qs")
			for _, q := range r.ReqPools {
				fmt.Fprintf(&b, ",%d", q)
			}
		}
		if len(r.Counts) > 0 {
			b.WriteString("|cn")
			for _, c := range r.Counts {
				fmt.Fprintf(&b, ",%d", c)
			}
		}
		fmt.Fprintf(&b, "|cl%d|ck%d|cc%d", r.Color, r.Key, r.ComputeCluster)
		fmt.Fprintf(&b, "|f%d|fo%d|fn%s", r.FilePool, r.OffsetRel, r.FileName)
		if got := r.KeyString(); got != b.String() {
			t.Errorf("record %d: KeyString = %q, legacy = %q", i, got, b.String())
		}
	}
}

func TestBufPoolRefCounting(t *testing.T) {
	b := GetInts(8)
	if len(b.S) != 8 {
		t.Fatalf("GetInts(8) len = %d", len(b.S))
	}
	b.Unref() // the single owner's release
	defer func() {
		if recover() == nil {
			t.Fatal("Unref past the final release should panic")
		}
	}()
	b.Unref()
}

func TestBufPoolNilSafe(t *testing.T) {
	var ib *IntBuf
	var bb *ByteBuf
	ib.Unref()
	bb.Unref()
}

func TestBufPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := GetInts(64 + g)
				for j := range b.S {
					b.S[j] = g
				}
				for _, v := range b.S {
					if v != g {
						t.Errorf("pooled buffer shared while referenced")
						break
					}
				}
				b.Unref()
			}
		}(g)
	}
	wg.Wait()
}

// benchTrace builds the same ring-pattern trace as traceRing without
// needing a *testing.T.
func benchTrace(b *testing.B, size, iters int) *Trace {
	rec := NewRecorder(size, Config{})
	w := mpiWorldForBench(size, rec)
	if _, err := w.Run(ringApp(size, iters)); err != nil {
		b.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

func BenchmarkTraceEncode(b *testing.B) {
	tr := benchTrace(b, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Encode()
	}
}

func BenchmarkTraceDecode(b *testing.B) {
	tr := benchTrace(b, 8, 4)
	data := tr.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
