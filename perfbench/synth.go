package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/obs"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/proxy"
	"siesta/internal/qp"
	"siesta/internal/sequitur"
	"siesta/internal/trace"
)

// synthSlots is the synthesis parallelism of every job: the number of
// workers core.Synthesize's parallel stages and overlapped runs use.
const synthSlots = 2

var synthApps = &workload{
	name:    "synth-apps",
	why:     "the paper's pipeline as `siesta -app` runs it: simulate, record, merge, verify, generate, replay, report fidelity",
	clients: 1,
	slots:   synthSlots,
	prepare: prepareSynth,
}

// synthFixture holds the panel's app closures and the reference C source
// digest of each entry.
type synthFixture struct {
	entries []panelEntry
	fns     []func(*mpi.Rank)
	ref     [][32]byte
}

func buildApp(e panelEntry) (func(*mpi.Rank), error) {
	spec, err := apps.ByName(e.App)
	if err != nil {
		return nil, err
	}
	return spec.Build(apps.Params{Ranks: e.Ranks})
}

// prepareSynth builds every panel app and synthesizes its reference: an
// in-process core.Synthesize at Parallelism 1 with a fresh memo.
func prepareSynth(seed uint64, log io.Writer) (fixture, error) {
	fx := &synthFixture{entries: panel()}
	for _, e := range fx.entries {
		fn, err := buildApp(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e, err)
		}
		res, err := core.Synthesize(fn, core.Options{
			Ranks: e.Ranks, Seed: e.Seed, Parallelism: 1, SearchMemo: blocks.NewMemo(0),
		})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", e, err)
		}
		fx.fns = append(fx.fns, fn)
		fx.ref = append(fx.ref, sha256Of(res.Generated.CSource()))
	}
	fmt.Fprintf(log, "panel: %d inputs (11 apps × ranks {16,27,64} as each accepts), references at Parallelism 1\n", len(fx.entries))
	return fx, nil
}

func (fx *synthFixture) start() error       { return nil }
func (fx *synthFixture) stop() error        { return nil }
func (fx *synthFixture) panelSize() int     { return len(fx.entries) }
func (fx *synthFixture) beginTraced()       {}
func (fx *synthFixture) finishTraced(tally) {}
func (fx *synthFixture) note() string       { return "" }

// job synthesizes one panel entry the way `siesta -app` does — a cold
// memo, default options, the C source rendered, the proxy replayed and the
// fidelity report computed — and then checks the output.
func (fx *synthFixture) job(req request, jt *jobTimer) jobResult {
	e := fx.entries[req.Entry]
	r := jobResult{entry: req.Entry}
	var (
		csrc string
		fid  fidelity
		ev   int
		err  error
	)
	// Each `siesta -app` process starts with an empty heap; collecting
	// the previous job's garbage first keeps one job's GC debt off the
	// next, so a job's latency does not depend on the order of the pass.
	runtime.GC()
	if jt != nil {
		csrc, fid, ev, r.sizeC, err = fx.splitJob(req.Entry, jt)
	} else {
		start := time.Now()
		csrc, fid, ev, r.sizeC, err = fx.wholeJob(req.Entry)
		r.latency = time.Since(start)
	}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", e, err)
		return r
	}
	r.events, r.fid = ev, &fid
	r.err = checkSynthOutput(e, csrc, fx.ref[req.Entry], fid)
	if jt != nil {
		r.latency = time.Duration(jt.t["core.wall_ns"])
	}
	return r
}

func sha256Of(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// checkSynthOutput is the per-job output check: the C source must be
// byte-identical to the Parallelism 1 reference and the replay error
// within the Table 3 bound.
func checkSynthOutput(e panelEntry, csrc string, ref [32]byte, fid fidelity) error {
	if sha256Of(csrc) != ref {
		return fmt.Errorf("%s: C source differs from the Parallelism 1 reference", e)
	}
	if fid.ReplayErr > replayErrBound {
		return fmt.Errorf("%s: replay error %.2f%% above the Table 3 bound %.0f%%", e, fid.ReplayErr*100, replayErrBound*100)
	}
	return nil
}

func (fx *synthFixture) wholeJob(i int) (csrc string, fid fidelity, events, sizeC int, err error) {
	e := fx.entries[i]
	res, err := core.Synthesize(fx.fns[i], core.Options{
		Ranks: e.Ranks, Seed: e.Seed, Parallelism: synthSlots, SearchMemo: blocks.NewMemo(0),
	})
	if err != nil {
		return "", fid, 0, 0, err
	}
	if res.Check == nil || res.Check.HasErrors() {
		return "", fid, 0, 0, fmt.Errorf("program failed check.Verify")
	}
	csrc = res.Generated.CSource()
	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		return "", fid, 0, 0, fmt.Errorf("proxy replay: %w", err)
	}
	fid = fidelity{
		ReplayErr: core.ReplayError(res.BaselineRun, prox),
		TimeErr:   core.TimeError(float64(prox.ExecTime), float64(res.BaselineRun.ExecTime)),
		Overhead:  res.Overhead,
	}
	return csrc, fid, res.Trace.TotalEvents(), res.Generated.SizeC, nil
}

// Defaults core.Synthesize applies to the options the jobs pass; the split
// pipeline spells them out. If they drift, the split run's C source stops
// matching the core.Synthesize reference and every traced job fails its
// output check.
const (
	defaultNoiseSigma   = 0.004
	defaultRunVariation = 0.02
	benchNoiseSigma     = 0.002
	benchNoiseSalt      = 0xb10c5
)

// splitJob runs the pipeline core.Synthesize runs as its public calls, each
// timed from here: the overlapped baseline run, traced run and B-matrix
// warmup, then merge, check, the QP searches, codegen and the proxy
// replay. After the job's wall time it makes the side measurements the
// ledger needs (solo untraced and traced runs, Globalize, Sequitur, the
// tracer cross-check) on the same input.
func (fx *synthFixture) splitJob(i int, jt *jobTimer) (csrc string, fid fidelity, events, sizeC int, err error) {
	e := fx.entries[i]
	plat, impl := platform.A, netmodel.OpenMPI
	baseCfg := mpi.Config{
		Platform: plat, Impl: impl, Size: e.Ranks,
		NoiseSigma: defaultNoiseSigma, RunVariation: defaultRunVariation, Seed: e.Seed,
	}
	noise := perfmodel.NewNoise(benchNoiseSigma, e.Seed^benchNoiseSalt)

	wallStart := time.Now()
	// Overlapped segment: baseline ∥ traced run ∥ B-matrix warmup.
	rec := trace.NewRecorder(e.Ranks, trace.Config{})
	tracedCfg := baseCfg
	tracedCfg.Interceptor = rec
	var (
		base, traced *mpi.RunResult
		bm           *qp.Matrix
		baseErr      error
		traceErr     error
		wg           sync.WaitGroup
	)
	leg := func(name string, fn func()) {
		defer wg.Done()
		s := time.Now()
		fn()
		jt.span(name, "leg", s, time.Now())
	}
	segStart := time.Now()
	wg.Add(3)
	go leg("mpi.World.Run baseline", func() { base, baseErr = mpi.NewWorld(baseCfg).Run(fx.fns[i]) })
	go leg("mpi.World.Run traced", func() { traced, traceErr = mpi.NewWorld(tracedCfg).Run(fx.fns[i]) })
	var warm time.Duration
	go leg("blocks.MeasureB", func() {
		s := time.Now()
		bm = blocks.MeasureB(plat, noise)
		warm = time.Since(s)
	})
	wg.Wait()
	jt.t.ns("blocks.measure_b_ns", warm)
	segEnd := time.Now()
	jt.span("core.overlap", "blocking", segStart, segEnd)
	jt.t.ns("core.overlap_ns", segEnd.Sub(segStart))
	jt.t.ns("core.blocking_ns", segEnd.Sub(segStart))
	if baseErr != nil {
		return "", fid, 0, 0, fmt.Errorf("baseline run: %w", baseErr)
	}
	if traceErr != nil {
		return "", fid, 0, 0, fmt.Errorf("traced run: %w", traceErr)
	}
	tr := rec.Trace(plat.Name, impl.Name)

	var prog *merge.Program
	jt.blocking("merge.build_ns", "merge.Build", func() {
		prog, err = merge.Build(tr, merge.Options{Parallelism: synthSlots})
	})
	if err != nil {
		return "", fid, 0, 0, fmt.Errorf("merge: %w", err)
	}
	var rep *check.Report
	jt.blocking("check.verify_ns", "check.Verify", func() {
		rep, err = check.Verify(prog, check.Options{ExactBytes: true})
	})
	if err != nil || rep.HasErrors() {
		return "", fid, 0, 0, fmt.Errorf("program failed check.Verify: %v", err)
	}
	memo := blocks.NewMemo(0)
	jt.blocking("blocks.search_ns", "blocks.CachedSearch", func() { err = searchClusters(memo, bm, prog) })
	if err != nil {
		return "", fid, 0, 0, err
	}
	hits, misses := memo.Stats()
	jt.t.add("blocks.memo_hits", float64(hits))
	jt.t.add("blocks.memo_misses", float64(misses))
	jt.t.add("blocks.searches", float64(len(prog.Clusters)))
	var gen *codegen.Generated
	jt.blocking("codegen.generate_ns", "codegen.Generate", func() {
		gen, err = codegen.Generate(prog, codegen.Options{
			Platform: plat, Scale: 1, BenchNoise: noise, BMatrix: bm, SearchMemo: memo, Check: rep,
		})
		if err == nil {
			csrc = gen.CSource()
		}
	})
	if err != nil {
		return "", fid, 0, 0, fmt.Errorf("generate: %w", err)
	}
	var prox *mpi.RunResult
	jt.blocking("proxy.replay_ns", "proxy.App.Run", func() {
		prox, err = proxy.New(gen).Run(mpi.Config{
			Platform: plat, Impl: impl,
			NoiseSigma: defaultNoiseSigma, RunVariation: defaultRunVariation, Seed: e.Seed + 1,
		})
	})
	if err != nil {
		return "", fid, 0, 0, fmt.Errorf("proxy replay: %w", err)
	}
	fid = fidelity{
		ReplayErr: core.ReplayError(base, prox),
		TimeErr:   core.TimeError(float64(prox.ExecTime), float64(base.ExecTime)),
		Overhead:  core.TimeError(float64(traced.ExecTime), float64(base.ExecTime)),
	}
	jt.end(wallStart, time.Now())
	jt.t.add("proxy.calls", float64(calls(prox)))
	jt.t.add("merge.program_bytes", float64(len(prog.Encode())))
	jt.t.add("merge.input_raw_bytes", float64(tr.RawSize()))
	events = tr.TotalEvents()
	jt.t.add("trace.events", float64(events))
	jt.t.add("trace.raw_bytes", float64(tr.RawSize()))

	if err := fx.sideMeasure(i, tr, csrc, jt); err != nil {
		return "", fid, 0, 0, err
	}
	return csrc, fid, events, gen.SizeC, nil
}

// searchClusters runs the per-cluster QP searches codegen.Generate makes,
// against the same memo, so Generate then finds every solve memoized.
func searchClusters(memo *blocks.Memo, bm *qp.Matrix, prog *merge.Program) error {
	for c, cl := range prog.Clusters {
		if _, err := blocks.CachedSearch(memo, bm, cl.Target()); err != nil {
			return fmt.Errorf("search cluster %d: %w", c, err)
		}
	}
	return nil
}

func calls(r *mpi.RunResult) int {
	n := 0
	for _, rk := range r.Ranks {
		n += rk.Calls
	}
	return n
}

// sideMeasure times, off the job's blocking path: the untraced and the
// traced run each alone (runtime cost per call, allocations, recorder cost
// per event), Globalize and Sequitur on the job's trace, and one
// core.Synthesize with its phase tracer attached, whose C source must
// match the split run's and whose phase spans are the cross-check.
func (fx *synthFixture) sideMeasure(i int, tr *trace.Trace, csrc string, jt *jobTimer) error {
	e := fx.entries[i]
	cfg := mpi.Config{
		Platform: platform.A, Impl: netmodel.OpenMPI, Size: e.Ranks,
		NoiseSigma: defaultNoiseSigma, RunVariation: defaultRunVariation, Seed: e.Seed,
	}
	var ms0, ms1 runtime.MemStats
	var base *mpi.RunResult
	var err error
	runtime.ReadMemStats(&ms0)
	jt.side("mpi.run_ns", "mpi.World.Run solo", func() { base, err = mpi.NewWorld(cfg).Run(fx.fns[i]) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fmt.Errorf("solo run: %w", err)
	}
	jt.t.add("mpi.allocs", float64(ms1.Mallocs-ms0.Mallocs))
	jt.t.add("mpi.calls", float64(calls(base)))

	rec := trace.NewRecorder(e.Ranks, trace.Config{})
	cfg.Interceptor = rec
	jt.side("trace.traced_run_ns", "mpi.World.Run traced solo", func() { _, err = mpi.NewWorld(cfg).Run(fx.fns[i]) })
	if err != nil {
		return fmt.Errorf("solo traced run: %w", err)
	}
	jt.t.add("trace.recorded_events", float64(rec.Trace(platform.A.Name, netmodel.OpenMPI.Name).TotalEvents()))

	sequiturSide(tr, jt, true)

	tracer := obs.New().WithoutTimelines()
	var res *core.Result
	jt.side("", "core.Synthesize traced", func() {
		res, err = core.Synthesize(fx.fns[i], core.Options{
			Ranks: e.Ranks, Seed: e.Seed, Parallelism: synthSlots,
			SearchMemo: blocks.NewMemo(0), Tracer: tracer,
		})
	})
	if err != nil {
		return fmt.Errorf("cross-check synthesis: %w", err)
	}
	if res.Generated.CSource() != csrc {
		return fmt.Errorf("%s: split pipeline C source differs from core.Synthesize", e)
	}
	for _, ph := range tracer.Phases() {
		jt.t.add("xcheck."+ph.Name+"_ns", ph.Dur*1e9)
	}
	return nil
}

// sequiturSide globalizes the trace (timed as merge.globalize when
// timeGlobalize) and times Sequitur over each rank's terminal ids.
func sequiturSide(tr *trace.Trace, jt *jobTimer, timeGlobalize bool) {
	var g *merge.Globalized
	key := ""
	if timeGlobalize {
		key = "merge.globalize_ns"
	}
	jt.side(key, "merge.GlobalizeParallel", func() { g = merge.GlobalizeParallel(tr, 0.05, synthSlots) })
	rules := 0
	jt.side("sequitur.ns", "sequitur.AppendAll", func() {
		for _, seq := range g.Seqs {
			b := sequitur.New()
			b.AppendAll(seq)
			rules += b.NumRules()
		}
	})
	for _, seq := range g.Seqs {
		jt.t.add("sequitur.symbols", float64(len(seq)))
	}
	jt.t.add("sequitur.rules", float64(rules))
	g.Release()
}

// entryMeans averages the fidelity and size_C of the proxies of the
// distinct panel entries the successful jobs synthesized. Repeats of an
// entry are byte-identical (the output check holds every job to one
// reference), so each entry counts once.
func entryMeans(results []jobResult) (fidelitySummary, error) {
	seen := map[int]bool{}
	var s fidelitySummary
	for _, r := range results {
		if r.err != nil || r.fid == nil || seen[r.entry] {
			continue
		}
		f := *r.fid
		seen[r.entry] = true
		s.ReplayErrPct += f.ReplayErr
		s.TimeErrPct += f.TimeErr
		s.OverheadPct += f.Overhead
		s.SizeC += float64(r.sizeC)
		s.Entries++
	}
	if s.Entries == 0 {
		return s, fmt.Errorf("no job succeeded")
	}
	n := float64(s.Entries)
	s.ReplayErrPct *= 100 / n
	s.TimeErrPct *= 100 / n
	s.OverheadPct *= 100 / n
	s.SizeC /= n
	return s, nil
}
