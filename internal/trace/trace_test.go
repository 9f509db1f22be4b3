package trace

import (
	"testing"
	"testing/quick"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
)

func TestPoolSmallestFree(t *testing.T) {
	p := NewPool()
	if p.Acquire(100) != 0 || p.Acquire(200) != 1 || p.Acquire(300) != 2 {
		t.Fatal("pool should hand out 0,1,2")
	}
	p.Release(200)
	if p.Acquire(400) != 1 {
		t.Fatal("pool should reuse the smallest free number")
	}
	if p.Acquire(400) != 1 {
		t.Fatal("re-acquiring a live key should return its number")
	}
	if id, ok := p.Lookup(100); !ok || id != 0 {
		t.Fatal("Lookup broken")
	}
	if p.Release(999) != -1 {
		t.Fatal("releasing unknown key should return -1")
	}
	if p.Live() != 3 {
		t.Fatalf("Live = %d, want 3", p.Live())
	}
}

func TestPoolDeterminismProperty(t *testing.T) {
	// Property: the same acquire/release sequence always yields the same
	// numbering — the foundation of replayable handle renaming.
	f := func(ops []uint8) bool {
		p1, p2 := NewPool(), NewPool()
		run := func(p *Pool) []int {
			var out []int
			for i, op := range ops {
				if op%3 == 0 {
					out = append(out, p.Release(int(op)))
				} else {
					out = append(out, p.Acquire(i))
				}
			}
			return out
		}
		a, b := run(p1), run(p2)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordKeyDistinguishes(t *testing.T) {
	base := Record{Func: mpicall.Send, DestRel: 1, Tag: 0, Bytes: 100}
	same := base
	if base.KeyString() != same.KeyString() {
		t.Fatal("identical records must share keys")
	}
	for _, mutate := range []func(*Record){
		func(r *Record) { r.Func = mpicall.Isend },
		func(r *Record) { r.DestRel = 2 },
		func(r *Record) { r.Tag = 1 },
		func(r *Record) { r.Bytes = 101 },
		func(r *Record) { r.CommPool = 1 },
		func(r *Record) { r.ReqPool = 3 },
		func(r *Record) { r.ReqPools = []int{1, 2} },
		func(r *Record) { r.Counts = []int{5} },
		func(r *Record) { r.ComputeCluster = 9 },
		func(r *Record) { r.Op = "sum" },
		func(r *Record) { r.Root = 5 },
	} {
		m := base.Clone()
		mutate(m)
		if m.KeyString() == base.KeyString() {
			t.Errorf("mutation not reflected in key: %+v", m)
		}
	}
}

func TestRecordClone(t *testing.T) {
	r := &Record{Func: mpicall.Waitall, ReqPools: []int{1, 2}, Counts: []int{3}}
	c := r.Clone()
	c.ReqPools[0] = 99
	c.Counts[0] = 99
	if r.ReqPools[0] == 99 || r.Counts[0] == 99 {
		t.Fatal("Clone aliases slices")
	}
}

// traceRing runs a small ring app under the recorder and returns the trace.
func traceRing(t *testing.T, size, iters int) (*Trace, *Recorder) {
	t.Helper()
	rec := NewRecorder(size, Config{})
	w := mpi.NewWorld(mpi.Config{Size: size, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace("A", "openmpi"), rec
}

func TestRecorderCapturesEverything(t *testing.T) {
	tr, _ := traceRing(t, 4, 3)
	h := tr.FuncHistogram()
	if h["MPI_Send"] != 12 || h["MPI_Irecv"] != 12 || h["MPI_Wait"] != 12 || h["MPI_Allreduce"] != 12 {
		t.Errorf("histogram wrong: %v", h)
	}
	if h["MPI_Compute"] != 12 {
		t.Errorf("compute events: %d, want 12", h["MPI_Compute"])
	}
	if got := tr.TotalEvents(); got != 60 {
		t.Errorf("TotalEvents = %d, want 60", got)
	}
}

func TestRelativeRankEncodingMakesRanksIdentical(t *testing.T) {
	// In a symmetric ring, every rank's event table must be identical
	// after relative-rank encoding — the property §2.2 exploits.
	tr, _ := traceRing(t, 8, 2)
	ref := tr.Ranks[0]
	for _, rt := range tr.Ranks[1:] {
		if len(rt.Table) != len(ref.Table) {
			t.Fatalf("rank %d table size %d != rank 0's %d", rt.Rank, len(rt.Table), len(ref.Table))
		}
		for i := range rt.Table {
			if rt.Table[i].KeyString() != ref.Table[i].KeyString() {
				t.Errorf("rank %d record %d differs: %q vs %q",
					rt.Rank, i, rt.Table[i].KeyString(), ref.Table[i].KeyString())
			}
		}
		if len(rt.Events) != len(ref.Events) {
			t.Errorf("rank %d event count differs", rt.Rank)
		}
	}
}

func TestLoopStructureVisibleAsRepetition(t *testing.T) {
	// The id sequence of an iterative app must be periodic: same ids each
	// iteration.
	tr, _ := traceRing(t, 4, 5)
	ev := tr.Ranks[0].Events
	period := len(ev) / 5
	for i := period; i < len(ev); i++ {
		if ev[i] != ev[i-period] {
			t.Fatalf("event sequence not periodic at %d", i)
		}
	}
}

func TestComputeClustering(t *testing.T) {
	rec := NewRecorder(1, Config{ClusterThreshold: 0.05})
	w := mpi.NewWorld(mpi.Config{Size: 1, Interceptor: rec, NoiseSigma: 0.01, Seed: 5})
	_, err := w.Run(func(r *mpi.Rank) {
		for i := 0; i < 20; i++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e6, Loads: 4e5, Branches: 1e5}) // same kernel, noisy counters
		}
		r.Compute(perfmodel.Kernel{DivOps: 1e6, MissLines: 1e5}) // very different
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	cl := tr.Ranks[0].Clusters
	if len(cl) != 2 {
		t.Fatalf("got %d clusters, want 2 (noise within threshold must merge)", len(cl))
	}
	if cl[0].N != 20 || cl[1].N != 1 {
		t.Errorf("cluster sizes %d/%d, want 20/1", cl[0].N, cl[1].N)
	}
	// Target is the mean; for 20 noisy repeats it should be near the rep.
	if clusterDistance(cl[0].Target(), cl[0].Rep) > 0.05 {
		t.Error("cluster mean drifted far from representative")
	}
	if cl[0].MeanTime() <= 0 {
		t.Error("cluster mean time should be positive")
	}
}

func TestRequestPoolNumbersLowAndReused(t *testing.T) {
	// With wait-after-each-iteration, request pool ids must stay small
	// (0 forever) instead of growing with the iteration count.
	tr, _ := traceRing(t, 4, 10)
	for _, r := range tr.Ranks[0].Table {
		if r.ReqPool > 0 {
			t.Errorf("request pool id %d should be 0 (reuse)", r.ReqPool)
		}
	}
}

func TestCommPoolOnSplit(t *testing.T) {
	rec := NewRecorder(4, Config{})
	w := mpi.NewWorld(mpi.Config{Size: 4, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		r.Allreduce(sub, 8, mpi.OpSum)
		r.CommFree(sub)
		dup := r.CommDup(r.World())
		r.Barrier(dup)
		r.CommFree(dup)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	var splitRec, allredRec, dupRec, barRec *Record
	for _, r := range tr.Ranks[0].Table {
		switch r.Func {
		case mpicall.CommSplit:
			splitRec = r
		case mpicall.Allreduce:
			allredRec = r
		case mpicall.CommDup:
			dupRec = r
		case mpicall.Barrier:
			barRec = r
		}
	}
	if splitRec == nil || splitRec.NewCommPool != 1 {
		t.Fatalf("split should create pool comm 1: %+v", splitRec)
	}
	if allredRec.CommPool != 1 {
		t.Errorf("allreduce should run on pool comm 1, got %d", allredRec.CommPool)
	}
	if dupRec.NewCommPool != 1 {
		t.Errorf("dup after free should reuse pool number 1, got %d", dupRec.NewCommPool)
	}
	if barRec.CommPool != 1 {
		t.Errorf("barrier on dup should use pool comm 1, got %d", barRec.CommPool)
	}
}

func TestTracingOverheadCharged(t *testing.T) {
	app := func(r *mpi.Rank) {
		for i := 0; i < 50; i++ {
			r.Compute(perfmodel.Kernel{IntOps: 1e5})
			r.Barrier(r.World())
		}
	}
	plain := mpi.NewWorld(mpi.Config{Size: 2})
	resPlain, err := plain.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(2, Config{})
	traced := mpi.NewWorld(mpi.Config{Size: 2, Interceptor: rec})
	resTraced, err := traced.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if resTraced.ExecTime <= resPlain.ExecTime {
		t.Error("tracing should cost something")
	}
	overhead := float64(resTraced.ExecTime-resPlain.ExecTime) / float64(resPlain.ExecTime)
	if overhead > 0.25 {
		t.Errorf("overhead %.1f%% implausibly high", overhead*100)
	}
	// Disabled overhead must be free.
	rec2 := NewRecorder(2, Config{DisableOverhead: true})
	w3 := mpi.NewWorld(mpi.Config{Size: 2, Interceptor: rec2})
	res3, err := w3.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ExecTime != resPlain.ExecTime {
		t.Error("DisableOverhead run should match plain run exactly")
	}
}

func TestDurationsParallelToEvents(t *testing.T) {
	tr, rec := traceRing(t, 2, 4)
	for rank := 0; rank < 2; rank++ {
		durs := rec.Durations(rank)
		if len(durs) != len(tr.Ranks[rank].Events) {
			t.Fatalf("rank %d: %d durations for %d events", rank, len(durs), len(tr.Ranks[rank].Events))
		}
		for i, d := range durs {
			if d < 0 {
				t.Fatalf("negative duration at %d", i)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr, _ := traceRing(t, 4, 3)
	data := tr.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRanks != tr.NumRanks || got.Platform != tr.Platform || got.Impl != tr.Impl {
		t.Fatal("header mismatch")
	}
	for i := range tr.Ranks {
		a, b := tr.Ranks[i], got.Ranks[i]
		if len(a.Events) != len(b.Events) || len(a.Table) != len(b.Table) || len(a.Clusters) != len(b.Clusters) {
			t.Fatalf("rank %d shape mismatch", i)
		}
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("rank %d event %d mismatch", i, j)
			}
		}
		for j := range a.Table {
			if a.Table[j].KeyString() != b.Table[j].KeyString() {
				t.Fatalf("rank %d record %d mismatch", i, j)
			}
		}
		for j := range a.Clusters {
			if a.Clusters[j].N != b.Clusters[j].N || a.Clusters[j].Sum != b.Clusters[j].Sum {
				t.Fatalf("rank %d cluster %d mismatch", i, j)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a trace")); err == nil {
		t.Fatal("garbage should not decode")
	}
	tr, _ := traceRing(t, 2, 1)
	data := tr.Encode()
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated trace should not decode")
	}
}

func TestRawSizeScalesWithEvents(t *testing.T) {
	small, _ := traceRing(t, 2, 2)
	big, _ := traceRing(t, 2, 20)
	if small.RawSize() <= 0 {
		t.Fatal("raw size should be positive")
	}
	ratio := float64(big.RawSize()) / float64(small.RawSize())
	if ratio < 5 || ratio > 15 {
		t.Errorf("10× the iterations should give ~10× the raw size, got %.1f×", ratio)
	}
	// The encoded (table+ids) form must be far smaller than raw for a
	// repetitive trace.
	if len(big.Encode()) >= big.RawSize() {
		t.Error("interned encoding should beat raw per-event format")
	}
}

func TestCodecPrimitives(t *testing.T) {
	var e Enc
	e.Uvarint(300)
	e.Varint(-42)
	e.Float(3.25)
	e.Str("hello")
	e.Ints([]int{1, -2, 3})
	d := NewDec(e.Bytes())
	if v, _ := d.Uvarint(); v != 300 {
		t.Fatal("uvarint")
	}
	if v, _ := d.Varint(); v != -42 {
		t.Fatal("varint")
	}
	if v, _ := d.Float(); v != 3.25 {
		t.Fatal("float")
	}
	if v, _ := d.Str(); v != "hello" {
		t.Fatal("str")
	}
	if v, _ := d.Ints(); len(v) != 3 || v[1] != -2 {
		t.Fatal("ints")
	}
}

func TestWildcardEncoding(t *testing.T) {
	rec := NewRecorder(2, Config{})
	w := mpi.NewWorld(mpi.Config{Size: 2, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, mpi.AnyTag)
		} else {
			r.Send(r.World(), 0, 5, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	var recvRec *Record
	for _, rr := range tr.Ranks[0].Table {
		if rr.Func == mpicall.Recv {
			recvRec = rr
		}
	}
	if recvRec.SrcRel != Wildcard || recvRec.Tag != Wildcard {
		t.Errorf("wildcards not encoded: %+v", recvRec)
	}
}
