package siesta

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/baselines/minime"
	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/experiments"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/qp"
	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// Benchmarks regenerating the paper's evaluation. Each benchmark runs the
// corresponding experiment driver and reports the experiment's headline
// error statistics as custom metrics, so `go test -bench` output doubles as
// a results table. The quick configuration (trimmed rank ladders) keeps a
// full -bench=. pass in CI time; run `siesta bench -exp` for the full ladders.
// The parallel-pipeline benchmarks below carry CI's speed-up gates
// (gateSpeedup); profile any of them with -cpuprofile.

var benchCfg = experiments.Config{Quick: true, Seed: 1}

// BenchmarkTable3 regenerates Table 3 (proxy-app specification: trace size,
// size_C, overhead, error).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var meanErr, meanOv float64
		for _, r := range rows {
			meanErr += r.Error
			meanOv += r.Overhead
		}
		b.ReportMetric(meanErr/float64(len(rows))*100, "%replay-error")
		b.ReportMetric(meanOv/float64(len(rows))*100, "%overhead")
	}
}

// BenchmarkFig4 regenerates Figure 4 (single computation event vs MINIME).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var m, s float64
		for _, r := range rows {
			m += r.MINIMEError
			s += r.SiestaError
		}
		b.ReportMetric(m/float64(len(rows))*100, "%minime-err")
		b.ReportMetric(s/float64(len(rows))*100, "%siesta-err")
	}
}

// BenchmarkFig5 regenerates Figure 5 (computation event sequences vs MINIME).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var m, s float64
		for _, r := range rows {
			m += r.MINIMEError
			s += r.SiestaError
		}
		b.ReportMetric(m/float64(len(rows))*100, "%minime-err")
		b.ReportMetric(s/float64(len(rows))*100, "%siesta-err")
	}
}

// BenchmarkFig6 regenerates Figure 6 (execution-time comparison, including
// the Pilgrim number quoted in §3.4.1).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.Siesta*100, "%siesta")
		b.ReportMetric(sum.SiestaScaled*100, "%siesta-scaled")
		b.ReportMetric(sum.ScalaBench*100, "%scalabench")
		b.ReportMetric(sum.Pilgrim*100, "%pilgrim")
	}
}

// BenchmarkFig7 regenerates Figure 7 (robustness to MPI implementation
// changes).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.Fig7(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.Siesta*100, "%siesta")
		b.ReportMetric(sum.ScalaBench*100, "%scalabench")
	}
}

// BenchmarkFig8 regenerates Figure 8 (portability between platforms A and C).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.Fig8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.Siesta*100, "%siesta")
		b.ReportMetric(sum.ScalaBench*100, "%scalabench")
	}
}

// BenchmarkFig9 regenerates Figure 9 (BT/CG ported from platform A to B).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, ported, err := experiments.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ported.Siesta*100, "%siesta-onB")
		b.ReportMetric(ported.ScalaBench*100, "%scalabench-onB")
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ----------

// benchTrace records one MG trace for the ablations.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	spec, err := apps.ByName("MG")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 6, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(8, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: 8, Interceptor: rec, Seed: 2})
	if _, err := w.Run(fn); err != nil {
		b.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

// BenchmarkAblationRunLength compares grammar sizes with and without the
// Sequitur run-length extension.
func BenchmarkAblationRunLength(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := merge.Build(tr, merge.Options{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := merge.Build(tr, merge.Options{DisableRunLength: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(with.Encode())), "B-with-RLE")
		b.ReportMetric(float64(len(without.Encode())), "B-without-RLE")
	}
}

// BenchmarkAblationMainMerge compares program sizes with and without the
// LCS-based main-rule merge.
func BenchmarkAblationMainMerge(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := merge.Build(tr, merge.Options{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := merge.Build(tr, merge.Options{DisableMainMerge: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(with.Encode())), "B-merged")
		b.ReportMetric(float64(len(without.Encode())), "B-unmerged")
	}
}

// BenchmarkAblationClusterThreshold sweeps the computation-event clustering
// threshold and reports the resulting cluster counts.
func BenchmarkAblationClusterThreshold(b *testing.B) {
	spec, err := apps.ByName("StirTurb")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 8, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.01, 0.05, 0.20} {
			rec := trace.NewRecorder(8, trace.Config{ClusterThreshold: th})
			w := mpi.NewWorld(mpi.Config{Size: 8, Interceptor: rec, NoiseSigma: 0.004, Seed: 3})
			if _, err := w.Run(fn); err != nil {
				b.Fatal(err)
			}
			tr := rec.Trace("A", "openmpi")
			n := 0
			for _, rt := range tr.Ranks {
				n += len(rt.Clusters)
			}
			switch th {
			case 0.01:
				b.ReportMetric(float64(n), "clusters@1%")
			case 0.05:
				b.ReportMetric(float64(n), "clusters@5%")
			case 0.20:
				b.ReportMetric(float64(n), "clusters@20%")
			}
		}
	}
}

// BenchmarkAblationQPvsMINIME runs both computation-proxy searches on the
// same target and reports both six-metric errors.
func BenchmarkAblationQPvsMINIME(b *testing.B) {
	p := platform.A
	target := perfmodel.Measure(p, perfmodel.Kernel{
		IntOps: 4e6, FPOps: 8e6, DivOps: 2e5, Loads: 5e6, Stores: 2e6,
		Branches: 3e6, RandBranches: 2e5, MissLines: 4e5,
	})
	bm := blocks.MeasureB(p, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combo, err := blocks.Search(bm, target)
		if err != nil {
			b.Fatal(err)
		}
		mini := minime.Synthesize(p, target, minime.Options{})
		b.ReportMetric(combo.Counters(p).RelError(target)*100, "%qp-err")
		b.ReportMetric(mini.Counters(p).RelError(target)*100, "%minime-err")
	}
}

// BenchmarkAblationRelativeRanks quantifies §2.2's relative-rank encoding:
// unique p2p records across ranks with and without it.
func BenchmarkAblationRelativeRanks(b *testing.B) {
	spec, err := apps.ByName("Sweep3d")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 16, Iters: 2, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	count := func(absolute bool) int {
		rec := trace.NewRecorder(16, trace.Config{AbsoluteRanks: absolute})
		w := mpi.NewWorld(mpi.Config{Size: 16, Interceptor: rec, Seed: 4})
		if _, err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
		keys := map[string]bool{}
		for _, rt := range rec.Trace("A", "openmpi").Ranks {
			for _, r := range rt.Table {
				keys[r.KeyString()] = true
			}
		}
		return len(keys)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(count(false)), "records-relative")
		b.ReportMetric(float64(count(true)), "records-absolute")
	}
}

// --- component microbenchmarks ---------------------------------------------

// BenchmarkSequitur measures grammar inference throughput on a periodic
// trace-like sequence.
func BenchmarkSequitur(b *testing.B) {
	phrase := []int{0, 1, 2, 1, 3, 4, 4, 5}
	tokens := make([]int, 0, 8*4096)
	for i := 0; i < 4096; i++ {
		tokens = append(tokens, phrase...)
	}
	b.SetBytes(int64(len(tokens)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := sequitur.New()
		bu.AppendAll(tokens)
		if bu.Grammar().NumSymbols() > 64 {
			b.Fatal("grammar blew up")
		}
	}
}

// BenchmarkQPSearch measures one constrained computation-proxy search: a
// typical target, which converges in about 190 FISTA steps, and the
// benchmark panel's slowest search (MG/16 cluster 1 on its noisy B
// matrix, about 62k steps).
func BenchmarkQPSearch(b *testing.B) {
	p := platform.A
	typical := perfmodel.Measure(p, perfmodel.Kernel{
		IntOps: 1e7, FPOps: 5e6, Loads: 8e6, Stores: 3e6, Branches: 3e6, MissLines: 5e5,
	})
	mg16 := &qp.Matrix{Rows: 6, Cols: 11, Data: []float64{
		4, 6, 4, 6, 74, 79, 4096, 6144, 5120, 2, 3,
		1.0003488052775806, 1.5017180149769005, 18.96256124924301, 73.60906796442073, 188.3569028473495, 370.602751841746, 7954.529894519794, 8475.26305966421, 45084.24388869106, 0.983371861325526, 1.2290545053035884,
		3.004010232417463, 2.005025418201671, 3.0024293174483905, 1.9984850653676274, 3.0019244499926394, 2.997240778395776, 1023.3677362150468, 1024.6608302006205, 1025.2552441585601, 0, 0,
		0, 0, 0, 0, 0, 0, 1024.7439486048597, 1024.877125358293, 1019.2386264041196, 0, 0,
		0, 0, 0, 0, 41.166742231832586, 40.95186013074942, 1025.8687958886462, 1022.6056478271104, 1021.9604110451775, 0.997812640980431, 0.9974613082361992,
		0, 0, 0, 0, 10.637233927493611, 10.619486037221161, 30.825852727630217, 30.736642349619263, 30.717315506658608, 0.030025895733789366, 0.029991862254383,
	}}
	mg16Target := perfmodel.Counters{4.2e+07, 1.495615254756225e+07, 1.6005058844854478e+07, 250025.45344179036, 6.001007528842712e+06, 180028.18434374162}
	for _, bc := range []struct {
		name   string
		bm     *qp.Matrix
		target perfmodel.Counters
	}{
		{"typical", blocks.MeasureB(p, nil), typical},
		{"MG16-hard", mg16, mg16Target},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blocks.Search(bc.bm, bc.target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPIRuntime measures simulated runtime throughput in MPI calls per
// second on a communication-heavy ring.
func BenchmarkMPIRuntime(b *testing.B) {
	const ranks, iters = 8, 200
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(mpi.Config{Size: ranks})
		_, err := w.Run(func(r *mpi.Rank) {
			c := r.World()
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for it := 0; it < iters; it++ {
				r.Sendrecv(c, next, 0, 1024, prev, 0)
				r.Allreduce(c, 8, mpi.OpSum)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ranks*iters*2), "calls/op")
}

// BenchmarkRecorder measures what the PMPI recorder adds to a run, the
// leg that sets a synthesis job's overlapped front half: LULESH/64 with
// the synth-apps panel's mpi.Config (platform A, Open MPI, its noise and
// run variation, the panel's seed for the entry), run untraced and then
// traced, alternated so that drift and garbage fall on both legs alike.
// It reports the traced leg's wall time over the untraced one's
// (traced/baseline) and the difference per recorded event (rec-ns/event),
// and asserts neither.
func BenchmarkRecorder(b *testing.B) {
	const app, ranks = "LULESH", 64
	spec, err := apps.ByName(app)
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks})
	if err != nil {
		b.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(app + "/" + strconv.Itoa(ranks)))
	cfg := mpi.Config{
		Platform: platform.A, Impl: netmodel.OpenMPI, Size: ranks,
		NoiseSigma: 0.004, RunVariation: 0.02, Seed: h.Sum64()%1_000_000 + 1,
	}
	var base, traced time.Duration
	events := 0
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := mpi.NewWorld(cfg).Run(fn); err != nil {
			b.Fatal(err)
		}
		base += time.Since(start)
		start = time.Now()
		rec := trace.NewRecorder(ranks, trace.Config{})
		tcfg := cfg
		tcfg.Interceptor = rec
		if _, err := mpi.NewWorld(tcfg).Run(fn); err != nil {
			b.Fatal(err)
		}
		traced += time.Since(start)
		events += rec.Trace(platform.A.Name, netmodel.OpenMPI.Name).TotalEvents()
	}
	b.ReportMetric(float64(traced)/float64(base), "traced/baseline")
	b.ReportMetric(float64(traced-base)/float64(events), "rec-ns/event")
}

// BenchmarkEndToEnd measures one full synthesis (trace → grammar → QP →
// proxy) for CG at 8 ranks.
func BenchmarkEndToEnd(b *testing.B) {
	spec, err := apps.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 4, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel-pipeline benchmarks (DESIGN.md §9) ----------------------------

// pipelineApp builds the parallel-stage benchmarks' workload: CG at the
// given rank count, 2 iterations, work scale 0.05.
func pipelineApp(b *testing.B, ranks int) func(*mpi.Rank) {
	b.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	return fn
}

// pipelineTrace records one pipelineApp trace at seed 1 with core's
// default noise and run variation.
func pipelineTrace(b *testing.B, ranks int) *trace.Trace {
	b.Helper()
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{
		Size: ranks, Interceptor: rec, NoiseSigma: 0.004, RunVariation: 0.02, Seed: 1,
	})
	if _, err := w.Run(pipelineApp(b, ranks)); err != nil {
		b.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

// gateSpeedup is a speed-up gate inside a benchmark, so CI's bench smoke
// fails on a regression even at -benchtime=1x: it times the serial and the
// parallel leg best of 3 batches each, reports the parallel leg's speed-up,
// and fails below min. A batch repeats its leg until it has run for
// gateBatch and counts the mean time per call, so a leg of 100 µs is timed
// over hundreds of calls instead of one. The legs alternate, so garbage one
// leg leaves behind is collected during both rather than always during the
// second. Beside each verdict it reports the box's own calibration,
// spinSpeedup, so a red gate says whether the box or the code is at fault.
// At GOMAXPROCS < 2 the legs cannot run concurrently, so it reports
// without asserting; CI's bench job refuses such a runner.
func gateSpeedup(b *testing.B, min float64, serial, parallel func()) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, p := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for j := 0; j < 3; j++ {
			gateTimed(serial, &s)
			gateTimed(parallel, &p)
		}
		speedup, spin := float64(s)/float64(p), spinSpeedup()
		b.ReportMetric(speedup, "speedup")
		b.ReportMetric(spin, "spin-speedup")
		if runtime.GOMAXPROCS(0) < 2 {
			b.Logf("GOMAXPROCS=1: %.2fx not asserted", speedup)
		} else if speedup < min {
			b.Fatalf("parallel leg only %.2fx the serial one (serial %v, parallel %v); the gate requires %.1fx; a two-goroutine spin reads %.2fx on this box",
				speedup, s, p, min, spin)
		}
	}
}

// gateBatch is the least wall time one timed batch of a gate leg runs.
const gateBatch = 20 * time.Millisecond

// gateTimed runs one batch of fn and lowers best to its mean time per call
// if that is faster.
func gateTimed(fn func(), best *time.Duration) {
	start := time.Now()
	var elapsed time.Duration
	calls := 0
	for elapsed < gateBatch {
		fn()
		calls++
		elapsed = time.Since(start)
	}
	if d := elapsed / time.Duration(calls); d < *best {
		*best = d
	}
}

// spinSink keeps the calibration spin's result live.
var spinSink float64

// spinSpeedup is the gates' calibration leg: the speed-up of a
// pure-arithmetic spin split over two goroutines against the same spin on
// one, timed like a gate (best of 3 alternated batches). The spin shares
// no memory and allocates nothing, so it reads near 2x on a box that runs
// two goroutines at once and near 1x on one that does not, whatever the
// code under the gate does.
func spinSpeedup() float64 {
	spin := func(n int) float64 {
		x := 1.0
		for i := 0; i < n; i++ {
			x = x*0.999999 + 1e-6
		}
		return x
	}
	const n = 1 << 20
	serial := func() { spinSink = spin(2 * n) }
	parallel := func() {
		var wg sync.WaitGroup
		var half [2]float64
		for g := range half {
			wg.Add(1)
			go func() {
				defer wg.Done()
				half[g] = spin(n)
			}()
		}
		wg.Wait()
		spinSink = half[0] + half[1]
	}
	s, p := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for j := 0; j < 3; j++ {
		gateTimed(serial, &s)
		gateTimed(parallel, &p)
	}
	return float64(s) / float64(p)
}

// BenchmarkGlobalize times the tree-reduction terminal-table merge serial
// vs parallel across the paper's rank ladder. The two variants produce
// byte-identical output (see internal/core/determinism_test.go); only the
// wall time may differ. Its gate: the parallel merge never loses to the
// serial fold, at any rank count.
func BenchmarkGlobalize(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	for _, ranks := range []int{8, 32, 64} {
		tr := pipelineTrace(b, ranks)
		globalize := func(p int) func() {
			return func() { merge.GlobalizeParallel(tr, 0.05, p).Release() }
		}
		for _, p := range []int{1, par} {
			b.Run(fmt.Sprintf("ranks=%d/par=%d", ranks, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					globalize(p)()
				}
			})
		}
		b.Run(fmt.Sprintf("ranks=%d/gate", ranks), func(b *testing.B) {
			gateSpeedup(b, 1.0, globalize(1), globalize(par))
		})
	}
}

// BenchmarkMergeBuild times the full trace merge (globalize + per-rank
// Sequitur + rule interning + main-rule grouping) serial vs parallel.
func BenchmarkMergeBuild(b *testing.B) {
	for _, ranks := range []int{8, 32, 64} {
		tr := pipelineTrace(b, ranks)
		for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("ranks=%d/par=%d", ranks, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := merge.Build(tr, merge.Options{Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchMemoized compares cold QP proxy searches against memoized
// re-solves over the cluster targets of a merged CG trace.
func BenchmarkSearchMemoized(b *testing.B) {
	tr := pipelineTrace(b, 8)
	prog, err := merge.Build(tr, merge.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bm := blocks.MeasureB(platform.A, nil)
	targets := make([]perfmodel.Counters, 0, len(prog.Clusters))
	for _, cl := range prog.Clusters {
		targets = append(targets, cl.Target())
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tgt := range targets {
				if _, err := blocks.Search(bm, tgt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		m := blocks.NewMemo(0)
		for _, tgt := range targets { // prime outside the timed region
			if _, err := blocks.CachedSearch(m, bm, tgt); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tgt := range targets {
				if _, err := blocks.CachedSearch(m, bm, tgt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSynthesizeParallelism times the whole pipeline at Parallelism 1
// vs GOMAXPROCS. Fresh memos per run keep the serial leg from pre-warming
// the cache for the parallel one. Its gate: at 64 ranks, the overlapped
// simulated runs plus the parallel stages make synthesis at least 1.5x
// faster than serial.
func BenchmarkSynthesizeParallelism(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	for _, ranks := range []int{8, 64} {
		fn := pipelineApp(b, ranks)
		synth := func(b *testing.B, p int) {
			_, err := core.Synthesize(fn, core.Options{
				Ranks: ranks, Seed: 1, Parallelism: p, SearchMemo: blocks.NewMemo(0),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range []int{1, par} {
			b.Run(fmt.Sprintf("ranks=%d/par=%d", ranks, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					synth(b, p)
				}
			})
		}
		if ranks == 64 {
			b.Run(fmt.Sprintf("ranks=%d/gate", ranks), func(b *testing.B) {
				gateSpeedup(b, 1.5, func() { synth(b, 1) }, func() { synth(b, par) })
			})
		}
	}
}

// BenchmarkTracingOverhead measures the recorder's relative slowdown after
// the buffer-reuse work and fails if it leaves the paper's Table 3 range
// (the same <~8%, tolerance 12%, bound the experiment suite enforces).
func BenchmarkTracingOverhead(b *testing.B) {
	spec, err := apps.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 4, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Overhead < 0 || res.Overhead > 0.12 {
			b.Fatalf("tracing overhead %.2f%% out of the paper's range", res.Overhead*100)
		}
		b.ReportMetric(res.Overhead*100, "%overhead")
	}
}

// BenchmarkProxyReplay measures proxy replay speed separately from
// generation.
func BenchmarkProxyReplay(b *testing.B) {
	spec, err := apps.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 4, WorkScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.RunProxy(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
