package merge

import (
	"bytes"
	"fmt"
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
)

// Adversarial inputs for batch Build's rank classes (DESIGN.md §15): each
// must encode exactly what the frozen reference does, under every
// ablation and at several Parallelism values, and form the expected
// number of classes.

// sendRec is a point-to-point record told apart from others by its size.
func sendRec(bytes int) *trace.Record {
	return &trace.Record{
		Func: mpicall.Send, DestRel: 1, SrcRel: trace.NoRank, Tag: 0, Bytes: bytes,
		RecvTag: trace.NoRank, Root: trace.NoRank, NewCommPool: -1, ReqPool: -1,
	}
}

// handTrace assembles a trace from per-rank local tables and event
// sequences over those tables' ids.
func handTrace(tables [][]*trace.Record, events [][]int) *trace.Trace {
	tr := &trace.Trace{NumRanks: len(tables), Platform: "A", Impl: "openmpi"}
	for r := range tables {
		tr.Ranks = append(tr.Ranks, &trace.RankTrace{
			Rank: r, Table: tables[r], Events: events[r],
			Durs: make([]float64, len(events[r])),
		})
	}
	return tr
}

// patternTrace gives rank r the pattern patterns[classOf[r]], every rank
// over its own copy of one shared table of distinct sends.
func patternTrace(patterns [][]int, classOf []int, tableSize int) *trace.Trace {
	tables := make([][]*trace.Record, len(classOf))
	events := make([][]int, len(classOf))
	for r, c := range classOf {
		for i := 0; i < tableSize; i++ {
			tables[r] = append(tables[r], sendRec(64+i))
		}
		events[r] = append([]int(nil), patterns[c]...)
	}
	return handTrace(tables, events)
}

// collapseClassesTrace records rank 0 computing one kernel and ranks 1..3
// two kernels that a 0.3 merge threshold folds onto rank 0's cluster, so
// the class of ranks 1..3 is non-injective and its representative must be
// re-inferred.
func collapseClassesTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(4, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: 4, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		for it := 0; it < 3; it++ {
			if r.Rank() == 0 {
				r.Compute(perfmodel.Kernel{IntOps: 100e6})
			} else {
				r.Compute(perfmodel.Kernel{IntOps: 80e6})
				r.Compute(perfmodel.Kernel{IntOps: 130e6})
			}
			r.Barrier(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

// eachReference calls fn under each ablation at Parallelism 1, 2 and 4
// with the frozen reference's encoding of tr.
func eachReference(t *testing.T, tr *trace.Trace, base Options, fn func(name string, opts Options, want []byte)) {
	t.Helper()
	for _, ab := range []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"no-run-length", func(o *Options) { o.DisableRunLength = true }},
		{"no-main-merge", func(o *Options) { o.DisableMainMerge = true }},
	} {
		for _, par := range []int{1, 2, 4} {
			opts := base
			ab.set(&opts)
			opts.Parallelism = par
			want, err := refBuild(tr, opts)
			if err != nil {
				t.Fatalf("%s/par%d: reference: %v", ab.name, par, err)
			}
			fn(fmt.Sprintf("%s/par%d", ab.name, par), opts, want.Encode())
		}
	}
}

// matchesReferenceClasses requires Build to equal refBuild byte for byte
// under each ablation at Parallelism 1, 2 and 4, with the given number of
// rank classes.
func matchesReferenceClasses(t *testing.T, tr *trace.Trace, base Options, wantClasses int) {
	t.Helper()
	eachReference(t, tr, base, func(name string, opts Options, want []byte) {
		got, classes, err := BuildRankClasses(tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(want, got.Encode()) {
			t.Fatalf("%s: Build differs from the batch reference", name)
		}
		if classes != wantClasses {
			t.Fatalf("%s: %d rank classes, want %d", name, classes, wantClasses)
		}
	})
}

// Above editCellCap similar is false even for identical mains, so each
// rank of a class with a long non-repeating main founds its own group: a
// member must not join its representative's.
func TestRankClassLongMainsStayApart(t *testing.T) {
	const n = 2100 // (n+1)² > editCellCap
	long := make([]int, n)
	for i := range long {
		long[i] = i
	}
	tr := patternTrace([][]int{long}, []int{0, 0, 0, 0}, n)
	matchesReferenceClasses(t, tr, Options{}, 1)
	p, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mains) != 4 {
		t.Fatalf("%d main groups, want one per rank", len(p.Mains))
	}
}

// Leaf ids are per-rank: equal leaf sequences over different records are
// different sequences and must not share a grammar.
func TestRankClassEqualLeafIdsDifferentRecords(t *testing.T) {
	events := []int{0, 1, 0, 1, 0, 1, 1, 0}
	tr := handTrace(
		[][]*trace.Record{{sendRec(8), sendRec(16)}, {sendRec(8), sendRec(32)}},
		[][]int{events, append([]int(nil), events...)})
	matchesReferenceClasses(t, tr, Options{}, 2)
}

// Local tables interned in different orders still name the same records:
// equal root sequences form one class whatever the leaf ids.
func TestRankClassPermutedLocalTables(t *testing.T) {
	a, b, c := sendRec(8), sendRec(16), sendRec(32)
	tr := handTrace(
		[][]*trace.Record{{a, b, c}, {c.Clone(), a.Clone(), b.Clone()}, {b.Clone(), c.Clone(), a.Clone()}},
		[][]int{{0, 1, 2, 0, 1, 2, 2}, {1, 2, 0, 1, 2, 0, 0}, {2, 0, 1, 2, 0, 1, 1}})
	matchesReferenceClasses(t, tr, Options{}, 1)
}

// Interleaved classes (A B A B A) and a single class covering every rank.
func TestRankClassInterleavedAndUniform(t *testing.T) {
	patterns := [][]int{
		{0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3},
		{0, 1, 0, 1, 4, 0, 1, 0, 1, 4, 2},
	}
	for _, c := range []struct {
		classOf []int
		want    int
	}{
		{[]int{0, 1, 0, 1, 0}, 2},
		{[]int{1, 1, 1, 1, 1, 1}, 1},
	} {
		t.Run(fmt.Sprint(c.classOf), func(t *testing.T) {
			matchesReferenceClasses(t, patternTrace(patterns, c.classOf, 5), Options{}, c.want)
		})
	}
}

// Under a coarse threshold the class of ranks 1..3 collapses two clusters
// into one root id: its representative takes the re-infer fallback, once,
// and its members share the re-inferred grammar.
func TestRankClassReinferredRepresentative(t *testing.T) {
	tr := collapseClassesTrace(t)
	opts := Options{ClusterThreshold: 0.3}
	matchesReferenceClasses(t, tr, opts, 2)
	if _, n, err := BuildReinferred(tr, opts); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("%d ranks re-inferred, want only the class representative", n)
	}
}
