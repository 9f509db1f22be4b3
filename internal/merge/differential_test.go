package merge_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/proxy"
	"siesta/internal/trace"
)

// record runs fn at ranks on the simulated runtime and returns its trace.
func record(ranks int, seed uint64, fn func(*mpi.Rank)) (*trace.Trace, error) {
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, Seed: seed})
	if _, err := w.Run(fn); err != nil {
		return nil, err
	}
	return rec.Trace("A", "openmpi"), nil
}

type appCase struct {
	name string
	tr   *trace.Trace
}

// appCases records every built-in app at 16, 27 and 64 ranks, as the app
// accepts — once, for every test that walks them.
var appCases = sync.OnceValues(func() ([]appCase, error) {
	var cases []appCase
	for _, spec := range apps.All() {
		for _, ranks := range []int{16, 27, 64} {
			if !spec.ValidRanks(ranks) {
				continue
			}
			app, err := spec.Build(apps.Params{Ranks: ranks})
			if err != nil {
				return nil, err
			}
			tr, err := record(ranks, 1, app)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", spec.Name, ranks, err)
			}
			cases = append(cases, appCase{fmt.Sprintf("%s/%d", spec.Name, ranks), tr})
		}
	}
	return cases, nil
})

// forEachApp calls fn on each app case in a parallel subtest.
func forEachApp(t *testing.T, fn func(t *testing.T, tr *trace.Trace)) {
	cases, err := appCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			fn(t, c.tr)
		})
	}
}

// matchesReference requires Build to encode exactly what the frozen batch
// reference encodes, under each ablation at Parallelism 1 and 2.
func matchesReference(t *testing.T, tr *trace.Trace) {
	t.Helper()
	for name, opts := range map[string]merge.Options{
		"default":       {},
		"no-run-length": {DisableRunLength: true},
		"no-main-merge": {DisableMainMerge: true},
	} {
		for _, par := range []int{1, 2} {
			opts.Parallelism = par
			want, err := merge.RefBuild(tr, opts)
			if err != nil {
				t.Fatalf("%s/par%d: reference: %v", name, par, err)
			}
			got, err := merge.Build(tr, opts)
			if err != nil {
				t.Fatalf("%s/par%d: %v", name, par, err)
			}
			if !bytes.Equal(want.Encode(), got.Encode()) {
				t.Fatalf("%s/par%d: Build differs from the batch reference", name, par)
			}
		}
	}
}

// Build commits through an Ingest fed in memory; on every built-in app it
// must produce the program the old globalize-then-infer batch path did.
func TestBuildMatchesReferenceApps(t *testing.T) {
	forEachApp(t, matchesReference)
}

// The same on property-generated programs, over odd and even rank counts
// (non-power-of-two reduction trees).
func TestBuildMatchesReferenceRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ranks := 4 + int(seed)
		t.Run(fmt.Sprintf("seed%d/%d", seed, ranks), func(t *testing.T) {
			tr, err := record(ranks, uint64(seed), proxy.RandomProgram(seed, 12))
			if err != nil {
				t.Fatal(err)
			}
			matchesReference(t, tr)
		})
	}
}

// The re-inference fallback exists for cluster collapses the built-in apps
// never produce: batch Build must commit every one of them through the
// injective relabel, so the fallback cannot quietly become its hot path.
func TestBuildNeverReinfersOnApps(t *testing.T) {
	forEachApp(t, func(t *testing.T, tr *trace.Trace) {
		if _, n, err := merge.BuildReinferred(tr, merge.Options{Parallelism: 2}); err != nil {
			t.Fatal(err)
		} else if n != 0 {
			t.Fatalf("%d of %d ranks took the re-inference fallback", n, len(tr.Ranks))
		}
	})
}

// Batch Build infers one grammar per rank class. On every built-in app its
// class count must equal the number of distinct globalized sequences,
// counted here independently, so the shared-inference path cannot quietly
// switch off (every rank its own class) or over-merge.
func TestBuildFindsRankClassesOnApps(t *testing.T) {
	cases, err := appCases()
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]int, len(cases))
	t.Run("apps", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				g := merge.GlobalizeParallel(c.tr, 0.05, 1)
				var distinct [][]int
				for _, seq := range g.Seqs {
					if !slices.ContainsFunc(distinct, func(d []int) bool { return slices.Equal(d, seq) }) {
						distinct = append(distinct, seq)
					}
				}
				_, n, err := merge.BuildRankClasses(c.tr, merge.Options{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				if n != len(distinct) {
					t.Fatalf("Build used %d rank classes; the trace has %d distinct sequences", n, len(distinct))
				}
				classes[i] = n
			})
		}
	})
	total, ranks := 0, 0
	for i, c := range cases {
		total += classes[i]
		ranks += len(c.tr.Ranks)
		switch c.name {
		case "Sod/64":
			if classes[i] != 1 {
				t.Errorf("Sod/64: %d rank classes, want 1", classes[i])
			}
		case "LULESH/64":
			if classes[i] != 27 {
				t.Errorf("LULESH/64: %d rank classes, want 27", classes[i])
			}
		}
	}
	if total != 190 || ranks != 999 {
		t.Errorf("%d rank classes over %d ranks, want 190 of 999", total, ranks)
	}
}

// A streamed session infers once per leaf class, and both front ends merge
// once per root class. On every built-in app the streamed root-class
// count must equal batch's and an independent count of distinct
// globalized sequences, and both paths must run Sequitur exactly once per
// distinct leaf sequence, counted here from one-rank globalizations (a
// lone rank's root table is its leaf table).
func TestStreamedFindsRankClassesOnApps(t *testing.T) {
	distinct := func(seqs [][]int) int {
		var seen [][]int
		for _, seq := range seqs {
			if !slices.ContainsFunc(seen, func(d []int) bool { return slices.Equal(d, seq) }) {
				seen = append(seen, seq)
			}
		}
		return len(seen)
	}
	forEachApp(t, func(t *testing.T, tr *trace.Trace) {
		roots := distinct(merge.GlobalizeParallel(tr, 0.05, 1).Seqs)
		leafSeqs := make([][]int, len(tr.Ranks))
		for r, rt := range tr.Ranks {
			one := &trace.Trace{NumRanks: 1, Ranks: []*trace.RankTrace{rt}}
			leafSeqs[r] = merge.GlobalizeParallel(one, 0.05, 1).Seqs[0]
		}
		leaves := distinct(leafSeqs)

		opts := merge.Options{Parallelism: 2}
		batch := merge.BatchIngest(tr, opts)
		want, err := batch.Build()
		if err != nil {
			t.Fatal(err)
		}
		stream, err := merge.NewIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
		if err != nil {
			t.Fatal(err)
		}
		for r, rt := range tr.Ranks {
			if err := stream.Rank(r).Feed(trace.ChunkEncodeRank(rt)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := stream.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Encode(), got.Encode()) {
			t.Fatal("streamed program differs from batch")
		}
		for _, c := range []struct {
			name string
			in   *merge.Ingest
		}{{"batch", batch}, {"streamed", stream}} {
			classes, runs := c.in.ClassCounts()
			if classes != roots || runs != leaves {
				t.Errorf("%s: %d root classes and %d Sequitur runs; the trace has %d distinct root and %d distinct leaf sequences",
					c.name, classes, runs, roots, leaves)
			}
		}
	})
}
