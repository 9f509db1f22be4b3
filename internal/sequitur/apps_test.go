package sequitur_test

import (
	"fmt"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// appSequences records app at ranks and returns its globalized per-rank
// sequences — the exact token streams merge.Build feeds to Sequitur.
func appSequences(tb testing.TB, spec *apps.Spec, ranks int) [][]int {
	tb.Helper()
	fn, err := spec.Build(apps.Params{Ranks: ranks})
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, Seed: 1})
	if _, err := w.Run(fn); err != nil {
		tb.Fatal(err)
	}
	g := merge.GlobalizeParallel(rec.Trace("A", "openmpi"), 0.05, 1)
	seqs := make([][]int, len(g.Seqs))
	for i, s := range g.Seqs {
		seqs[i] = append([]int(nil), s...)
	}
	g.Release()
	return seqs
}

// TestDifferentialApps: on the globalized per-rank sequence of every
// built-in app at 16 and 64 ranks (as the app accepts), the production
// builder's grammar, rule count and mid-stream snapshots are identical to
// the frozen reference's, with run-length on and off.
func TestDifferentialApps(t *testing.T) {
	for _, spec := range apps.All() {
		for _, ranks := range []int{16, 64} {
			if !spec.ValidRanks(ranks) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", spec.Name, ranks), func(t *testing.T) {
				tested := map[string]bool{} // SPMD ranks often share a sequence
				for rank, seq := range appSequences(t, spec, ranks) {
					id := fmt.Sprint(seq)
					if tested[id] {
						continue
					}
					tested[id] = true
					for _, runLength := range []bool{true, false} {
						if _, msg := sequitur.DiffBuild(seq, runLength, len(seq)/2+1, false); msg != "" {
							t.Fatalf("rank %d (run-length %v): %s", rank, runLength, msg)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSequitur measures the kernel on the globalized per-rank
// sequences of CG (periodic) and IS (irregular all-to-all-v) at 64 ranks —
// the exact streams merge.Build feeds it. It reports ns/symbol, the unit of
// the benchmark ledger's sequitur.ns_per_symbol row.
func BenchmarkSequitur(b *testing.B) {
	for _, app := range []string{"CG", "IS"} {
		b.Run("app="+app+"/ranks=64", func(b *testing.B) {
			spec, err := apps.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			seqs := appSequences(b, spec, 64)
			symbols := 0
			for _, s := range seqs {
				symbols += len(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range seqs {
					sequitur.New().AppendAll(s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*symbols), "ns/symbol")
		})
	}
}
