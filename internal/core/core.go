// Package core is Siesta's top-level pipeline (paper Fig. 1): given an MPI
// application (a function over the simulated runtime), it traces
// communication and computation events, searches computation proxies,
// extracts intra- and inter-process grammars, and generates a synthetic
// proxy-app — plus the error metrics the evaluation section reports.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"siesta/internal/blocks"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/fault"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/obs"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/proxy"
	"siesta/internal/qp"
	"siesta/internal/statics"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

// ErrCanceled matches any synthesis error caused by context cancellation
// or a wall-clock deadline: errors.Is(err, ErrCanceled) holds for the
// error Synthesize (or Result.RunProxy) returns when Options.Context fires
// mid-run. It aliases mpi.ErrCanceled so callers at either layer agree.
var ErrCanceled = mpi.ErrCanceled

// Options configures one synthesis run.
type Options struct {
	// Context, when non-nil, bounds the whole pipeline in wall-clock
	// terms: canceling it (or passing its deadline) stops the simulated
	// ranks promptly and surfaces a typed error matching ErrCanceled.
	// It participates in neither JSON encoding nor OptionsFingerprint —
	// two runs differing only in Context are the same synthesis.
	Context context.Context

	// Tracer, when non-nil, records the run's observability data: one
	// wall-clock span per pipeline phase (baseline, trace, merge, check,
	// codegen, and when parallelism overlaps them the warmup and search
	// spans) with rank-count, parallelism, and artifact-size attributes,
	// plus per-rank virtual-time timelines for the baseline run (and the
	// proxy replay, via Result.RunProxy). The server attaches an observer
	// for per-phase structured logs and metrics; the trace CLI verb
	// exports it. Recording never perturbs the simulated runs' virtual
	// times. Like Context, it is excluded from JSON encoding and the
	// fingerprint — two runs differing only in Tracer are the same
	// synthesis.
	Tracer *obs.Tracer

	// Execution environment for the traced run.
	Platform   *platform.Platform // default platform.A
	Impl       *netmodel.Impl     // default OpenMPI
	Ranks      int                // required
	NoiseSigma float64            // counter noise; default 0.004
	// RunVariation is run-to-run environmental jitter (default 2%); it is
	// what separates two executions of the same binary on a real cluster
	// and sets the error floor every proxy comparison sits on. Negative
	// disables it.
	RunVariation float64
	Seed         uint64

	// Faults optionally injects failures (crashes, message drops/delays,
	// stragglers, seeded chaos) into every run the pipeline performs —
	// baseline, traced, and proxy replay — so a proxy's degradation under
	// faults can be compared against the original's. Deadline bounds each
	// run's virtual time; past it the runtime aborts with a DeadlockError
	// naming every blocked rank. Zero values disable both.
	Faults   *fault.Plan
	Deadline vtime.Duration

	// Parallelism bounds the worker count for the synthesis pipeline's
	// parallel stages: the overlapped baseline/traced simulated runs, the
	// tree-reduction terminal merge, per-rank grammar inference, the
	// losslessness check, and the computation-proxy searches overlapped
	// with the static check. 0 (or negative) selects GOMAXPROCS; 1 runs fully
	// sequentially. Like Context, it participates in neither JSON encoding
	// nor OptionsFingerprint: the parallel stages are deterministic by
	// construction, so two runs differing only in Parallelism produce
	// byte-identical programs and proxies.
	Parallelism int

	// SearchMemo caches computation-proxy QP solves (see blocks.Memo).
	// nil selects the process-global blocks.DefaultMemo. Memoization never
	// changes results, so this too is excluded from the fingerprint.
	SearchMemo *blocks.Memo

	// Checkpointer, when non-nil, persists canonical pipeline state at
	// completed phase boundaries (post-trace, post-merge, post-search) so
	// an interrupted synthesis can resume instead of recomputing. A Save
	// failure aborts the run with a *CheckpointError, which callers should
	// treat as transient. Checkpointing never changes the synthesized
	// output, so like Context and Tracer it participates in neither JSON
	// encoding nor OptionsFingerprint.
	Checkpointer Checkpointer
	// Resume, when non-nil, is a checkpoint from an earlier attempt of
	// the same synthesis. It is honored only when its fingerprint matches
	// these options and its payload decodes cleanly; any mismatch or
	// corruption silently degrades to a full recompute. Resumed phases are
	// skipped: the simulated runs from PhaseTrace on, grammar merging from
	// PhaseMerge on (static verification always re-runs — it is cheap and
	// keeps the C header stamp identical), and the QP solves at
	// PhaseSearch answer from the imported memo. Excluded from the
	// fingerprint.
	Resume *Checkpoint

	// Analyze attaches a statics.Collector to the static verification
	// gate, cold or resumed, so the one machine run that verifies the
	// program also feeds its static analysis: Result.Analysis carries the
	// collector, and its Report gives the statics.Report that
	// statics.Analyze would. Observing never changes the verdict, so this
	// participates in neither JSON encoding nor OptionsFingerprint.
	Analyze bool `json:"-"`

	// Pipeline knobs.
	Trace trace.Config
	Merge merge.Options
	Scale float64 // proxy shrink factor; 0/1 = unscaled
	// BenchNoise controls micro-benchmark noise for the B matrix; when
	// nil a small default noise tied to Seed is used.
	BenchNoise *perfmodel.Noise
}

func (o Options) withDefaults() Options {
	if o.Platform == nil {
		o.Platform = platform.A
	}
	if o.Impl == nil {
		o.Impl = netmodel.OpenMPI
	}
	if o.NoiseSigma == 0 {
		o.NoiseSigma = 0.004
	}
	if o.RunVariation == 0 {
		o.RunVariation = 0.02
	} else if o.RunVariation < 0 {
		o.RunVariation = 0
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.BenchNoise == nil {
		o.BenchNoise = perfmodel.NewNoise(0.002, o.Seed^0xb10c5)
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Merge.Parallelism == 0 {
		o.Merge.Parallelism = o.Parallelism
	}
	return o
}

// Result bundles everything one synthesis produces.
type Result struct {
	Opts Options

	// BaselineRun is the uninstrumented execution (ground truth);
	// TracedRun is the instrumented execution the trace came from.
	BaselineRun *mpi.RunResult
	TracedRun   *mpi.RunResult
	// Overhead is the relative slowdown tracing imposed (Table 3).
	Overhead float64

	Trace     *trace.Trace
	Program   *merge.Program
	Check     *check.Report
	Generated *codegen.Generated
	Proxy     *proxy.App

	// Analysis observed the gate's machine run when Options.Analyze was
	// set (nil otherwise): Analysis.Report(Check, platform) is the
	// program's static analysis.
	Analysis *statics.Collector

	// ResumedFrom names the checkpoint phase this run resumed from, ""
	// for an uninterrupted run. Resumed runs carry nil BaselineRun and
	// TracedRun (the simulated executions were skipped); Overhead is
	// restored from the checkpoint.
	ResumedFrom string
}

// Synthesize runs the full pipeline on the application: the simulated
// front half (baseline and traced runs), then the back half every entry
// shares (see tail), then the post-search checkpoint only this entry
// writes.
func Synthesize(app func(*mpi.Rank), opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Ranks <= 0 {
		return nil, fmt.Errorf("core: Ranks must be positive")
	}
	r := newRun(opts)
	defer r.end()
	res := r.res

	// Checkpoint/restart support (DESIGN.md §11): a resume checkpoint whose
	// trace decodes skips both simulated runs — the trace already captures
	// them — and restores the overhead they measured. A stale fingerprint
	// or a corrupt trace forces a clean recompute rather than an error;
	// whether the checkpoint's program is usable too is the tail's call.
	resume := opts.Resume
	if t := resumeTrace(resume, r.fp); t != nil {
		res.Trace, res.Overhead, res.ResumedFrom = t, resume.Overhead, PhaseTrace
		r.traceBytes, r.samples = resume.TraceBytes, resume.CommSamples
	} else {
		resume = nil
		if err := r.simulate(app); err != nil {
			return nil, err
		}
		r.sample(res.Trace)
		if err := r.save(PhaseTrace, func(cp *Checkpoint) {
			r.traceBytes = res.Trace.Encode()
			cp.TraceBytes = r.traceBytes
		}); err != nil {
			return nil, err
		}
	}

	if err := r.tail(resume, func() (*merge.Program, error) {
		return merge.Build(res.Trace, opts.Merge)
	}); err != nil {
		return nil, err
	}
	if res.ResumedFrom != PhaseSearch {
		if err := r.save(PhaseSearch, func(cp *Checkpoint) {
			cp.TraceBytes, cp.ProgramBytes = r.traceBytes, r.progBytes
			m := r.memo
			if m == nil {
				m = blocks.DefaultMemo
			}
			cp.MemoBytes = m.Export()
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// SynthesizeTrace runs the back half over a recorded trace — merge,
// verify, generate — with no simulated execution: the entry for uploaded
// traces. The Result carries tr but no runs and no Overhead. With a
// Checkpointer it writes one checkpoint, at the merge boundary, holding
// the program alone; Options.Resume honors such a checkpoint.
func SynthesizeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	opts.Ranks = len(tr.Ranks)
	opts = opts.withDefaults()
	r := newRun(opts)
	defer r.end()
	r.res.Trace = tr
	r.sample(tr)
	if err := r.tail(opts.Resume, func() (*merge.Program, error) {
		return merge.Build(tr, opts.Merge)
	}); err != nil {
		return nil, err
	}
	return r.res, nil
}

// run is one synthesis in flight: its options (defaults applied), the
// result being filled, the open phase span, and the checkpoint state the
// phase boundaries share.
type run struct {
	opts Options
	res  *Result
	// cur is the in-flight phase span; phase ends it and opens the next.
	// All obs methods are nil-receiver safe, and the attribute list is
	// only built when a tracer is attached, so the disabled path costs one
	// nil check per phase and allocates nothing (pinned by the overhead
	// benchmark in obs_test.go).
	cur *obs.Span
	// fp is the options fingerprint checkpoints carry; empty when the run
	// neither saves nor resumes.
	fp string
	// traceBytes and progBytes are the canonical payloads, encoded at most
	// once. traceBytes stays nil outside Synthesize, which is what keeps
	// the other entries' merge checkpoints program-only.
	traceBytes, progBytes []byte
	// bmatrix is the micro-benchmark B matrix an overlapped front half
	// warmed, nil when codegen measures it itself.
	bmatrix *qp.Matrix
	// memo is the search memo codegen solved through.
	memo *blocks.Memo
	// samples are the communication timings a scaled run's codegen fits
	// its shrink regression on, nil when unscaled. Every checkpoint
	// carries them, so a resumed run fits the same ones.
	samples []codegen.CommSample
}

func newRun(opts Options) *run {
	r := &run{opts: opts, res: &Result{Opts: opts}}
	if opts.Checkpointer != nil || opts.Resume != nil {
		r.fp = OptionsFingerprint(opts)
	}
	return r
}

// end closes the in-flight phase span.
func (r *run) end() {
	r.cur.End()
	r.cur = nil
}

// phase ends the in-flight span, opens the next, and reports a canceled
// context. The simulated runs poll the context themselves; this check
// covers the pure phases (merge, check, codegen) between them.
func (r *run) phase(name string) error {
	r.end()
	if tr := r.opts.Tracer; tr != nil {
		r.cur = tr.Phase(name,
			obs.Int("ranks", r.opts.Ranks),
			obs.Int("parallelism", r.opts.Parallelism))
	}
	if ctx := r.opts.Context; ctx != nil && ctx.Err() != nil {
		return &mpi.CancelError{Cause: context.Cause(ctx)}
	}
	return nil
}

// save persists a checkpoint at a completed boundary: build fills the
// payload, which is only encoded when a Checkpointer is attached.
func (r *run) save(boundary string, build func(cp *Checkpoint)) error {
	if r.opts.Checkpointer == nil {
		return nil
	}
	var sp *obs.Span
	if tr := r.opts.Tracer; tr != nil {
		sp = tr.Phase("checkpoint", obs.String("boundary", boundary))
	}
	cp := &Checkpoint{Fingerprint: r.fp, Phase: boundary, Overhead: r.res.Overhead,
		CommSamples: r.samples}
	build(cp)
	err := r.opts.Checkpointer.Save(cp)
	if sp != nil {
		sp.SetAttrs(obs.Int("bytes",
			len(cp.TraceBytes)+len(cp.ProgramBytes)+len(cp.MemoBytes)))
	}
	sp.End()
	if err != nil {
		return &CheckpointError{Phase: boundary, Err: err}
	}
	return nil
}

// sample collects a scaled run's communication timings from the trace it
// merges. Only a recorded trace carries them: an uploaded one, decoded
// from its encoding, yields none, and neither does a streamed session.
func (r *run) sample(tr *trace.Trace) {
	if r.opts.Scale > 1 {
		r.samples = codegen.CollectCommSamples(tr)
	}
}

// simulate is Synthesize's front half: the uninstrumented baseline run
// (ground truth) and the traced run, overlapped when parallelism allows.
func (r *run) simulate(app func(*mpi.Rank)) error {
	opts, res, tr := r.opts, r.res, r.opts.Tracer
	baseCfg := mpi.Config{
		Platform: opts.Platform, Impl: opts.Impl, Size: opts.Ranks,
		NoiseSigma: opts.NoiseSigma, RunVariation: opts.RunVariation, Seed: opts.Seed,
		Faults: opts.Faults, Deadline: opts.Deadline, Ctx: opts.Context,
	}
	if tl := tr.NewTimeline("baseline", opts.Ranks); tl != nil {
		baseCfg.Interceptor = tl
	}
	rec := trace.NewRecorder(opts.Ranks, opts.Trace)
	tracedCfg := mpi.Config{
		Platform: opts.Platform, Impl: opts.Impl, Size: opts.Ranks,
		NoiseSigma: opts.NoiseSigma, RunVariation: opts.RunVariation,
		Seed: opts.Seed, Interceptor: rec,
		Faults: opts.Faults, Deadline: opts.Deadline, Ctx: opts.Context,
	}

	if opts.Parallelism <= 1 {
		// Ground-truth run, without instrumentation (the timeline
		// observer charges no virtual-time cost, so the run stays
		// bit-identical).
		var err error
		if err := r.phase("baseline"); err != nil {
			return fmt.Errorf("core: baseline run: %w", err)
		}
		if res.BaselineRun, err = mpi.NewWorld(baseCfg).Run(app); err != nil {
			return fmt.Errorf("core: baseline run: %w", err)
		}

		// Traced run: same seeds, plus the PMPI recorder.
		if err := r.phase("trace"); err != nil {
			return fmt.Errorf("core: traced run: %w", err)
		}
		if res.TracedRun, err = mpi.NewWorld(tracedCfg).Run(app); err != nil {
			return fmt.Errorf("core: traced run: %w", err)
		}
		res.Overhead = relDiff(float64(res.TracedRun.ExecTime), float64(res.BaselineRun.ExecTime))
		res.Trace = rec.Trace(opts.Platform.Name, opts.Impl.Name)
		if tr != nil {
			r.cur.SetAttrs(
				obs.Int("events", res.Trace.TotalEvents()),
				obs.Int("raw_bytes", res.Trace.RawSize()))
		}
		return nil
	}

	// Overlapped runs: the baseline and traced worlds share seeds but no
	// mutable state, so they execute concurrently — the segment costs
	// max(baseline, traced) instead of their sum — while a third worker
	// warms the codegen B matrix. It is the first (and only) consumer of
	// opts.BenchNoise, so the warmed matrix is identical to the one
	// codegen would measure itself. Each run still owns a full phase span;
	// the spans overlap in wall clock and are tagged so exports and
	// metrics can tell.
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("core: baseline run: %w",
			&mpi.CancelError{Cause: context.Cause(ctx)})
	}
	var baseSpan, traceSpan, warmSpan *obs.Span
	if tr != nil {
		baseSpan = tr.Phase("baseline",
			obs.Int("ranks", opts.Ranks),
			obs.Int("parallelism", opts.Parallelism),
			obs.Bool("overlap", true))
		traceSpan = tr.Phase("trace",
			obs.Int("ranks", opts.Ranks),
			obs.Int("parallelism", opts.Parallelism),
			obs.Bool("overlap", true))
		warmSpan = tr.Phase("warmup",
			obs.Int("parallelism", opts.Parallelism),
			obs.Bool("overlap", true))
	}
	var wg sync.WaitGroup
	var baseErr, traceErr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer baseSpan.End()
		var e error
		if res.BaselineRun, e = mpi.NewWorld(baseCfg).Run(app); e != nil {
			baseErr = fmt.Errorf("core: baseline run: %w", e)
		}
	}()
	go func() {
		defer wg.Done()
		defer traceSpan.End()
		var e error
		if res.TracedRun, e = mpi.NewWorld(tracedCfg).Run(app); e != nil {
			traceErr = fmt.Errorf("core: traced run: %w", e)
			return
		}
		res.Trace = rec.Trace(opts.Platform.Name, opts.Impl.Name)
		if tr != nil {
			traceSpan.SetAttrs(
				obs.Int("events", res.Trace.TotalEvents()),
				obs.Int("raw_bytes", res.Trace.RawSize()))
		}
	}()
	go func() {
		defer wg.Done()
		defer warmSpan.End()
		r.bmatrix = blocks.MeasureB(opts.Platform, opts.BenchNoise)
	}()
	wg.Wait()
	if baseErr != nil {
		return baseErr
	}
	if traceErr != nil {
		return traceErr
	}
	res.Overhead = relDiff(float64(res.TracedRun.ExecTime), float64(res.BaselineRun.ExecTime))
	return nil
}

// tail is the back half every entry shares (DESIGN.md §9, §11, §15): the
// merged program — restored from resume when that is a merge checkpoint
// whose program decodes, else built — passes the static verification gate
// while its computation-proxy searches run beside it, is checkpointed at
// the merge boundary, and is generated into C source and a proxy. resume
// has passed the entry's own checks (nil when there is none); the tail
// needs nothing from it but the program and, from a post-search
// checkpoint, the solved searches.
func (r *run) tail(resume *Checkpoint, build func() (*merge.Program, error)) error {
	opts, res := r.opts, r.res
	if p := resumeProgram(resume, r.fp); p != nil {
		res.Program, res.ResumedFrom = p, resume.Phase
		r.progBytes = resume.ProgramBytes
	}
	if res.ResumedFrom != "" {
		if err := r.phase("resume"); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
		if opts.Tracer != nil {
			r.cur.SetAttrs(
				obs.String("from", res.ResumedFrom),
				obs.Bool("resumed", true))
		}
	}
	built := res.Program == nil
	if built {
		if err := r.phase("merge"); err != nil {
			return fmt.Errorf("core: merge: %w", err)
		}
		var err error
		if res.Program, err = build(); err != nil {
			return fmt.Errorf("core: merge: %w", err)
		}
	}

	// The computation-proxy searches need only the program, so they start
	// now and run beside the gate on the job's idle workers; the caller
	// joins them after it. A post-search checkpoint pre-loads the memo
	// first so every cluster's QP solve is a cache hit; memo purity
	// guarantees the replayed solutions are byte-identical to cold ones.
	r.memo = opts.SearchMemo
	if res.ResumedFrom == PhaseSearch && len(resume.MemoBytes) > 0 {
		if r.memo == nil {
			r.memo = blocks.DefaultMemo
		}
		// An undecodable snapshot degrades to cold solves; results are
		// unchanged either way.
		r.memo.Import(resume.MemoBytes)
	}
	genOpts := codegen.Options{
		Platform:    opts.Platform,
		Scale:       opts.Scale,
		BenchNoise:  opts.BenchNoise,
		BMatrix:     r.bmatrix,
		SearchMemo:  r.memo,
		CommSamples: r.samples,
	}
	search, searchSpan := r.startSearch(genOpts)
	defer func() {
		search.Stop()
		searchSpan.End()
	}()

	// Static verification gate: the traced run completed, so the merged
	// program must verify cleanly — an error here means grammar extraction
	// or merging corrupted the communication structure, and the proxy
	// would hang or diverge on replay. It re-runs on resume too: the
	// verdict is stamped into the C header, and re-checking an identical
	// program is cheap and yields the identical summary. An analyzed run
	// hangs the statics collector on this pass instead of running the
	// machine a second time.
	if err := r.phase("check"); err != nil {
		return fmt.Errorf("core: check: %w", err)
	}
	ckOpts := check.Options{
		ExactBytes:    true,
		AbsoluteRanks: opts.Trace.AbsoluteRanks,
	}
	var col *statics.Collector
	if opts.Analyze {
		col = statics.NewCollector(res.Program)
		ckOpts.Hooks = col
	}
	rep, err := check.Verify(res.Program, ckOpts)
	if err != nil {
		return fmt.Errorf("core: check: %w", err)
	}
	res.Check, res.Analysis = rep, col
	if rep.HasErrors() {
		return &VerifyError{Report: rep}
	}
	if built {
		if err := r.save(PhaseMerge, func(cp *Checkpoint) {
			r.progBytes = res.Program.Encode()
			cp.TraceBytes, cp.ProgramBytes = r.traceBytes, r.progBytes
		}); err != nil {
			return err
		}
	}

	// Code generation: the caller solves whatever searches are left, then
	// emits the proxy from their table.
	if err := r.phase("codegen"); err != nil {
		return fmt.Errorf("core: generate: %w", err)
	}
	px, err := search.Wait()
	searchSpan.End()
	if err != nil {
		return fmt.Errorf("core: generate: %w", err)
	}
	genOpts.Check = res.Check
	res.Generated = codegen.GenerateFrom(res.Program, px, genOpts)
	if opts.Tracer != nil {
		r.cur.SetAttrs(obs.Int("size_c", res.Generated.SizeC))
	}
	res.Proxy = proxy.New(res.Generated)
	return nil
}

// startSearch starts the program's computation-proxy searches on
// min(Parallelism−1, clusters) workers, leaving the caller free for the
// gate. With any worker it opens the searches' own span, tagged as
// overlapped like the simulated legs; at Parallelism 1 the caller solves
// every cluster, in cluster order, inside the codegen phase.
func (r *run) startSearch(genOpts codegen.Options) (*codegen.Search, *obs.Span) {
	clusters := len(r.res.Program.Clusters)
	workers := min(r.opts.Parallelism-1, clusters)
	var sp *obs.Span
	if tr := r.opts.Tracer; tr != nil && workers > 0 {
		sp = tr.Phase("search",
			obs.Int("clusters", clusters),
			obs.Int("parallelism", r.opts.Parallelism),
			obs.Bool("overlap", true))
	}
	return codegen.StartSearch(r.res.Program, genOpts, workers), sp
}

// VerifyError is the static verification gate's verdict on a merged
// program with error-severity findings. It carries the full report so
// callers can count or show every diagnostic, not just the first.
type VerifyError struct {
	Report *check.Report
}

func (e *VerifyError) Error() string {
	first := ""
	for _, d := range e.Report.Diags {
		if d.Severity >= check.Error {
			first = d.String()
			break
		}
	}
	return fmt.Sprintf("core: merged program failed static verification (%s); first: %s",
		e.Report.Summary(), first)
}

// RunProxy executes the generated proxy in a given environment (defaulting
// to the generation environment) and returns the run result.
func (r *Result) RunProxy(p *platform.Platform, im *netmodel.Impl) (*mpi.RunResult, error) {
	if p == nil {
		p = r.Opts.Platform
	}
	if im == nil {
		im = r.Opts.Impl
	}
	cfg := mpi.Config{
		Platform: p, Impl: im,
		NoiseSigma: r.Opts.NoiseSigma, RunVariation: r.Opts.RunVariation,
		Seed:   r.Opts.Seed + 1,
		Faults: r.Opts.Faults, Deadline: r.Opts.Deadline, Ctx: r.Opts.Context,
	}
	// The replay timeline gives the proxy the same per-rank observability
	// as the baseline, so the two can be compared side by side in a viewer.
	if tl := r.Opts.Tracer.NewTimeline("replay", r.Generated.Prog.NumRanks); tl != nil {
		cfg.Interceptor = tl
	}
	return r.Proxy.Run(cfg)
}

// relDiff is |a−b|/|b| with a zero-safe denominator.
func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TimeError is the paper's execution-time metric 100×|T_gen−T_app|/T_app,
// as a fraction (not percent).
func TimeError(gen, app float64) float64 { return relDiff(gen, app) }

// ReplayError is Table 3's "Error" column: the mean relative error between
// the original program and the proxy across all six performance metrics and
// the per-rank execution time, averaged over all processes.
func ReplayError(orig, prox *mpi.RunResult) float64 {
	if len(orig.Ranks) != len(prox.Ranks) {
		return 1
	}
	var sum float64
	var n int
	for i := range orig.Ranks {
		o, p := &orig.Ranks[i], &prox.Ranks[i]
		for m := perfmodel.Metric(0); m < perfmodel.NumMetrics; m++ {
			if o.Compute[m] == 0 {
				continue
			}
			sum += relDiff(p.Compute[m], o.Compute[m])
			n++
		}
		sum += relDiff(float64(p.FinishTime), float64(o.FinishTime))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ScaleBack multiplies a scaled proxy's counters and times back up by the
// scaling factor so it can be compared against the unscaled original with
// ReplayError.
func ScaleBack(prox *mpi.RunResult, scale float64) *mpi.RunResult {
	adj := &mpi.RunResult{Ranks: make([]mpi.RankResult, len(prox.Ranks))}
	for i := range prox.Ranks {
		adj.Ranks[i] = prox.Ranks[i]
		adj.Ranks[i].Compute = prox.Ranks[i].Compute.Scale(scale)
		adj.Ranks[i].FinishTime = vtime.Time(float64(prox.Ranks[i].FinishTime) * scale)
	}
	adj.ExecTime = vtime.Duration(float64(prox.ExecTime) * scale)
	return adj
}
