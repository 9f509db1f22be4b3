package merge

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
)

// Regression for the asymmetric clusterDist: the old denominator used only
// b, so dist(a,b) != dist(b,a) and cluster dedup depended on which rank was
// visited first. The symmetric distance must be order-free.
func TestClusterDistSymmetric(t *testing.T) {
	a := perfmodel.Counters{100, 1e6, 3, 0, 50, 7}
	b := perfmodel.Counters{104, 1.2e6, 3, 2, 45, 7}
	if d1, d2 := clusterDist(a, b), clusterDist(b, a); d1 != d2 {
		t.Fatalf("clusterDist asymmetric: d(a,b)=%g d(b,a)=%g", d1, d2)
	}
	// The symmetric form is the max of both one-sided relative diffs: for
	// a=100 vs b=104 that is 4/100, not 4/104.
	x := perfmodel.Counters{100}
	y := perfmodel.Counters{104}
	if got, want := clusterDist(x, y), 0.04; math.Abs(got-want) > 1e-12 {
		t.Fatalf("clusterDist(100,104)=%g, want %g", got, want)
	}
	// Zeros are floored at 1 in the denominator.
	z := perfmodel.Counters{}
	o := perfmodel.Counters{0.5}
	if got := clusterDist(z, o); got != 0.5 {
		t.Fatalf("clusterDist(0,0.5)=%g, want 0.5", got)
	}
}

func globalizedEqual(t *testing.T, a, b *Globalized) {
	t.Helper()
	if len(a.Terminals) != len(b.Terminals) {
		t.Fatalf("terminal counts differ: %d vs %d", len(a.Terminals), len(b.Terminals))
	}
	for i := range a.Terminals {
		if a.Terminals[i].KeyString() != b.Terminals[i].KeyString() {
			t.Fatalf("terminal %d differs:\n%s\nvs\n%s", i,
				a.Terminals[i].KeyString(), b.Terminals[i].KeyString())
		}
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		if !reflect.DeepEqual(a.Clusters[i], b.Clusters[i]) {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, a.Clusters[i], b.Clusters[i])
		}
	}
	if !reflect.DeepEqual(a.Seqs, b.Seqs) {
		t.Fatal("per-rank sequences differ")
	}
}

// The determinism invariant at the globalize layer: every parallelism value
// must produce the identical global table, cluster table, and sequences —
// the ones the frozen batch reference produces.
func TestGlobalizeParallelMatchesSequential(t *testing.T) {
	traces := map[string]*trace.Trace{
		"ring8":          ringTrace(t, 8, 4),
		"ring13":         ringTrace(t, 13, 3), // non-power-of-two tree
		"masterWorker8":  masterWorkerTrace(t, 8, 4),
		"masterWorker16": masterWorkerTrace(t, 16, 2),
	}
	for name, tr := range traces {
		base := refGlobalize(tr, 0.05, 1)
		for _, par := range []int{1, 2, 4, 8} {
			got := GlobalizeParallel(tr, 0.05, par)
			t.Run(fmt.Sprintf("%s/par%d", name, par), func(t *testing.T) {
				globalizedEqual(t, base, got)
			})
		}
	}
}

// The determinism invariant at the program layer: Build output must be
// byte-identical for every parallelism value.
func TestBuildParallelByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"ring16":        ringTrace(t, 16, 5),
		"masterWorker9": masterWorkerTrace(t, 9, 3),
	}
	for name, tr := range traces {
		p1, err := Build(tr, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc1 := p1.Encode()
		for _, par := range []int{2, 4, 8} {
			pN, err := Build(tr, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", name, par, err)
			}
			if !bytes.Equal(enc1, pN.Encode()) {
				t.Fatalf("%s: Build output with Parallelism=%d differs from sequential", name, par)
			}
		}
	}
}

// The bucketed index must return exactly the linear scan's answer (the
// lowest-indexed cluster within the threshold) for every query, including
// tables past the cutover where the 3^m neighbourhood probe takes over.
func TestClusterIndexMatchesLinearScan(t *testing.T) {
	const th = 0.05
	rng := rand.New(rand.NewSource(7))
	randomRep := func() perfmodel.Counters {
		var c perfmodel.Counters
		for i := range c {
			switch rng.Intn(4) {
			case 0:
				c[i] = 0 // exercise the max(v,1) floor
			case 1:
				c[i] = rng.Float64() // sub-1 values quantize to cell 0
			default:
				c[i] = math.Exp(rng.Float64() * 25) // up to ~7e10
			}
		}
		return c
	}

	indexed := newPartial(th)
	var linear []*trace.Cluster
	linearAdd := func(c *trace.Cluster) int {
		for i, gc := range linear {
			if clusterDist(c.Rep, gc.Rep) <= th {
				gc.Sum.Add(c.Sum)
				gc.N += c.N
				gc.TimeSum += c.TimeSum
				return i
			}
		}
		linear = append(linear, c)
		return len(linear) - 1
	}

	var reps []perfmodel.Counters
	for i := 0; i < 3000; i++ {
		var rep perfmodel.Counters
		if len(reps) > 0 && rng.Intn(3) == 0 {
			// Near-duplicate of an earlier rep: perturb each metric by up to
			// ±8% so queries land both inside and just outside the 5%
			// threshold, straddling quantization cell boundaries.
			rep = reps[rng.Intn(len(reps))]
			for j := range rep {
				rep[j] *= 1 + (rng.Float64()-0.5)*0.16
			}
		} else {
			rep = randomRep()
		}
		reps = append(reps, rep)

		ca := &trace.Cluster{Rep: rep, Sum: rep, N: 1}
		cb := &trace.Cluster{Rep: rep, Sum: rep, N: 1}
		ia := indexed.addCluster(ca, th)
		ib := linearAdd(cb)
		if ia != ib {
			t.Fatalf("insert %d: indexed chose cluster %d, linear scan chose %d", i, ia, ib)
		}
	}
	if len(indexed.clusters) != len(linear) {
		t.Fatalf("table sizes diverged: indexed %d vs linear %d", len(indexed.clusters), len(linear))
	}
	if len(indexed.clusters) < indexCutover {
		t.Fatalf("test never reached the indexed path: only %d clusters (cutover %d)",
			len(indexed.clusters), indexCutover)
	}
	for i := range linear {
		if !reflect.DeepEqual(indexed.clusters[i], linear[i]) {
			t.Fatalf("cluster %d differs between indexed and linear tables", i)
		}
	}
}

// A threshold of exactly 0 must still dedup identical reps (the index is
// disabled; the linear path compares with <= 0).
func TestGlobalizeZeroThreshold(t *testing.T) {
	tr := ringTrace(t, 4, 2)
	g := GlobalizeParallel(tr, 0, 4)
	if len(g.Clusters) != 1 {
		t.Fatalf("got %d clusters at threshold 0, want 1 (identical kernels)", len(g.Clusters))
	}
}

func TestParfor(t *testing.T) {
	for _, par := range []int{0, 1, 3, 8, 100} {
		n := 57
		seen := make([]int32, n)
		parfor(n, par, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("par=%d: index %d executed %d times", par, i, c)
			}
		}
	}
	parfor(0, 4, func(int) { t.Fatal("parfor(0) must not invoke fn") })
}

func TestParforCheap(t *testing.T) {
	// Below the cutoff parforCheap must not spawn: with par huge and fn
	// recording goroutine-visible state serially, any spawned worker would
	// race on the unsynchronized counter and -race would flag it.
	n := parforSerialCutoff - 1
	count := 0
	parforCheap(n, 64, func(i int) { count++ })
	if count != n {
		t.Fatalf("parforCheap ran %d iterations, want %d", count, n)
	}
	// At or above the cutoff it must still cover every index exactly once.
	n = parforSerialCutoff + 7
	seen := make([]int32, n)
	parforCheap(n, 4, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

// BenchmarkParforOverhead measures the fixed cost of one parfor dispatch —
// goroutine spawn, chunk-claim atomics, and join — with a near-empty body.
// This is the number parforSerialCutoff is derived from; see DESIGN.md §14.
func BenchmarkParforOverhead(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parfor(64, par, func(j int) { sink.Add(1) })
			}
		})
	}
}

// TestLeafTableDuplicateRecordAllocs pins that interning a record the rank
// has already seen allocates nothing: its key is rendered into the table's
// reused buffer and the index is probed without a string conversion. When
// every key was rendered through Record.KeyString, a duplicate cost 5
// allocations (four buffer growths and the string).
func TestLeafTableDuplicateRecordAllocs(t *testing.T) {
	lt := newLeafTable(0.05, trace.NewSpillTable(0, nil))
	r := &trace.Record{
		Func: mpicall.Isend, DestRel: 1, SrcRel: trace.NoRank, Tag: 7, Bytes: 4096,
		Root: trace.NoRank, NewCommPool: -1, ReqPool: 3,
	}
	lt.addRecord(r.Clone())
	dup := r.Clone()
	allocs := testing.AllocsPerRun(100, func() {
		lt.wireRec = lt.wireRec[:0]
		lt.addRecord(dup)
	})
	if allocs != 0 {
		t.Errorf("interning a duplicate record: %v allocs, want 0", allocs)
	}
	if got := lt.table.Stats().Records; got != 1 {
		t.Errorf("table holds %d records, want 1", got)
	}
}
