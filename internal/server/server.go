// Package server exposes Siesta's synthesis pipeline as a long-lived
// concurrent service: `siesta serve`. Requests name a built-in application
// (or upload a raw trace), are admitted into a bounded job queue, and a
// worker pool runs core.Synthesize with per-job wall-clock deadlines and
// context cancellation. Finished proxies land in a content-addressed
// artifact cache keyed by the input identity plus the canonical options
// fingerprint, so identical requests are answered without re-synthesis.
// Backpressure (429 + Retry-After), graceful drain, a Prometheus-text
// /metrics endpoint, and structured JSON phase logs are part of the
// subsystem rather than bolted on.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"siesta/internal/check"
	"siesta/internal/core"
	"siesta/internal/durable"
	"siesta/internal/obs"
	"siesta/internal/platform"
	"siesta/internal/server/cache"
	"siesta/internal/server/metrics"
)

// Config tunes one service instance. The zero value is usable.
type Config struct {
	// Workers is the synthesis worker-pool size; default 2.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-running jobs;
	// default 16. A full queue rejects with 429 + Retry-After.
	QueueDepth int
	// JobTimeout is the per-job wall-clock budget, and the upper bound on
	// any per-request timeout_ms override; default 120s.
	JobTimeout time.Duration
	// CacheSize is the artifact cache's entry budget; default 128.
	CacheSize int
	// MaxJobs bounds retained job records; completed records beyond it
	// are pruned oldest-first. Default 1024.
	MaxJobs int
	// MaxParallelism caps the per-job synthesis parallelism a request may
	// ask for (and is the default when a request does not ask); default
	// GOMAXPROCS. Parallelism never changes synthesized output, so it does
	// not participate in artifact-cache keys.
	MaxParallelism int
	// Logger receives one record per job event (admission, phase
	// transitions, completion): Info level, Debug for phase transitions.
	// obs.EventLogger gives the JSON-line form. Nil disables logging.
	Logger *slog.Logger
	// Registry receives the service metrics; a private registry is
	// created when nil.
	Registry *metrics.Registry
	// StateDir enables crash durability: a write-ahead job journal, phase
	// checkpoints, and a disk artifact tier all live under it. On startup
	// the journal is replayed — jobs that were queued or in flight when
	// the previous process died are re-admitted and resume from their last
	// checkpoint. Empty keeps everything in memory.
	StateDir string
	// MaxRetries is both the default and the cap for a request's
	// max_retries field: in-process retries of transient (durability I/O)
	// failures; default 3.
	MaxRetries int
	// MaxIngestSessions bounds concurrently open streaming-upload
	// sessions (POST /v1/traces); opens past it are rejected with 429.
	// Default 64.
	MaxIngestSessions int
	// WorkerID names this node in a fleet. It is stamped on every HTTP
	// response as an X-Siesta-Worker header and reported in job views, so
	// clients and the fleet gateway can tell which node served a request.
	// Empty for a standalone service.
	WorkerID string
	// PeerFetch, when non-nil, is consulted on an artifact-cache miss
	// before the job is queued: given the content-addressed cache key it
	// may return a finished artifact held by a fleet peer, letting any
	// replica answer a hit before recomputing. The call sits on the
	// request path, so implementations must bound their own latency.
	PeerFetch func(key cache.Key) (*cache.Artifact, bool)
	// CheckpointSink, when non-nil, receives every phase-boundary
	// checkpoint this node writes, keyed by the job's artifact cache key
	// (location-independent, unlike the job id). The fleet worker
	// replicates these to a hash-ring successor so a job whose owner dies
	// can resume from its last boundary on another node. Called on the
	// synthesis goroutine after local persistence; implementations must
	// not block. A CheckpointSink without a StateDir still enables
	// checkpointing — the blobs just live only in the sink's replicas.
	CheckpointSink func(key cache.Key, ckpt []byte)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.MaxIngestSessions <= 0 {
		c.MaxIngestSessions = 64
	}
	return c
}

// Server is one synthesis service instance. Create with New, serve its
// Handler, and stop it with Shutdown.
type Server struct {
	cfg   Config
	store *cache.Store
	reg   *metrics.Registry

	// Durability layer; all nil/zero without a StateDir.
	journal   *durable.Journal
	ckpts     *durable.CheckpointStore
	retryBase time.Duration // backoff base; tests shrink it

	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	mu        sync.Mutex
	jobs      map[string]*job
	jobOrder  []string // admission order, for listing and pruning
	nextID    int
	draining  bool
	drainDone chan struct{} // closed when all workers have exited

	// ready flips true once construction — including journal recovery —
	// has completed; /readyz serves 503 before that and again while
	// draining, so a fleet gateway never routes to a node still replaying
	// its WAL or on its way out.
	ready atomic.Bool

	// Streaming-upload sessions (POST /v1/traces), by session id. A
	// session leaves the map on commit (ownership moves to the job) or
	// abort; sessions are memory-only and do not survive a restart.
	ingestMu   sync.Mutex
	ingests    map[string]*ingestSession
	nextIngest int

	// phaseAgg accumulates per-phase wall times split by serial
	// (parallelism 1) vs parallel jobs, backing the speedup gauges.
	phaseMu  sync.Mutex
	phaseAgg map[string]*phaseTimes

	// metrics handles, registered once at construction
	mAccepted, mRejected  *metrics.Counter
	mHits, mMisses        *metrics.Counter
	mDone, mFail, mCancel *metrics.Counter
	mRecovered, mCkptW    *metrics.Counter
	mRetries, mPeerHits   *metrics.Counter
	mDiagInfo, mDiagWarn  *metrics.Counter
	mDiagErr              *metrics.Counter
	mIngestBytes          *metrics.Counter
	gQueued, gRunning     *metrics.Gauge
	gPhasePar             *metrics.Gauge
	gIngestRanks          *metrics.Gauge
	hJobDur               *metrics.Histogram
	hAnalyze              *metrics.Histogram
}

// phaseTimes aggregates one phase's observed wall times by execution mode.
// Parallel samples are bucketed by whether the phase actually ran
// overlapped with another phase (index 1) or not (index 0), so the speedup
// gauges attribute gains to the overlap separately from worker-pool
// parallelism.
type phaseTimes struct {
	serialSum float64
	serialN   int
	parSum    [2]float64
	parN      [2]int
}

// New builds a service and starts its worker pool. With a StateDir
// configured it also opens the durability layer and re-admits jobs the
// previous incarnation left unfinished; the only error paths are state-dir
// I/O, so a memory-only service never fails to construct.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		store:    cache.New(cfg.CacheSize),
		reg:      reg,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		ingests:  make(map[string]*ingestSession),
		phaseAgg: make(map[string]*phaseTimes),

		mAccepted:    reg.Counter("siesta_jobs_accepted_total", "synthesis jobs admitted to the queue"),
		mRejected:    reg.Counter("siesta_jobs_rejected_total", "synthesis jobs rejected because the queue was full"),
		mHits:        reg.Counter("siesta_cache_hits_total", "requests answered from the artifact cache"),
		mMisses:      reg.Counter("siesta_cache_misses_total", "requests that required synthesis"),
		mDone:        reg.Counter(`siesta_jobs_completed_total{status="done"}`, "jobs by final status"),
		mFail:        reg.Counter(`siesta_jobs_completed_total{status="failed"}`, "jobs by final status"),
		mCancel:      reg.Counter(`siesta_jobs_completed_total{status="canceled"}`, "jobs by final status"),
		mRecovered:   reg.Counter("siesta_jobs_recovered_total", "jobs re-admitted from the journal after a restart"),
		mCkptW:       reg.Counter("siesta_checkpoints_written_total", "phase-boundary checkpoints persisted"),
		mRetries:     reg.Counter("siesta_job_retries_total", "in-process retries of transient job failures"),
		mPeerHits:    reg.Counter("siesta_peer_hits_total", "cache misses answered by a fleet peer's replica"),
		mDiagInfo:    reg.Counter(`siesta_check_diagnostics_total{severity="info"}`, "static-verifier diagnostics by severity"),
		mDiagWarn:    reg.Counter(`siesta_check_diagnostics_total{severity="warning"}`, "static-verifier diagnostics by severity"),
		mDiagErr:     reg.Counter(`siesta_check_diagnostics_total{severity="error"}`, "static-verifier diagnostics by severity"),
		mIngestBytes: reg.Counter("siesta_ingest_bytes_total", "trace bytes accepted by streaming ingest"),
		gIngestRanks: reg.Gauge("siesta_ingest_ranks_open", "rank streams currently open across ingest sessions"),
		gQueued:      reg.Gauge("siesta_queue_depth", "jobs waiting in the queue"),
		gRunning:     reg.Gauge("siesta_jobs_running", "jobs currently synthesizing"),
		gPhasePar:    reg.Gauge("siesta_phase_parallelism", "synthesis parallelism of the most recently started job"),
		hJobDur:      reg.Histogram("siesta_job_duration_seconds", "wall-clock synthesis duration", nil),
		hAnalyze:     reg.Histogram("siesta_analyze_seconds", "wall-clock time of the statics fold that turns an analyzed job's check run into its report", nil),
	}
	// Build metadata as a constant-1 gauge, the Prometheus idiom for
	// joining version info onto other series by label.
	reg.Gauge(buildInfoMetric(), "build metadata; the value is always 1").Set(1)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Recovery needs the workers: re-admission pushes onto the bounded
	// queue and relies on them to drain a backlog deeper than it.
	if cfg.StateDir != "" {
		if err := s.openState(); err != nil {
			close(s.queue)
			s.wg.Wait()
			return nil, err
		}
	}
	// Readiness comes last: the journal has been replayed and every
	// surviving job re-admitted, so routing traffic here is now safe.
	s.ready.Store(true)
	return s, nil
}

// buildInfoMetric renders the siesta_build_info metric name with its
// constant labels: the module version when built from a tagged module, the
// VCS revision when embedded, "dev" otherwise, plus the Go toolchain.
func buildInfoMetric() string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		} else {
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
					version = kv.Value[:12]
				}
			}
		}
	}
	return fmt.Sprintf("siesta_build_info{version=%q,go=%q}", version, runtime.Version())
}

// Ready reports whether the service has finished journal recovery and is
// not draining — the condition /readyz serves and the fleet worker
// advertises in its heartbeats.
func (s *Server) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Artifact returns the locally cached artifact under key, consulting the
// memory LRU and the disk tier but never fleet peers — it backs the peer
// endpoint itself, so a peer-to-peer fetch cannot recurse.
func (s *Server) Artifact(key cache.Key) (*cache.Artifact, bool) {
	return s.store.Get(key)
}

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// logEvent logs one job event with its attributes as slog key/value
// pairs, in call order: Debug for phase transitions, Info otherwise.
func (s *Server) logEvent(event string, args ...any) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	level := slog.LevelInfo
	if event == "phase" {
		level = slog.LevelDebug
	}
	lg.Log(context.Background(), level, event, args...)
}

// Admission refusals: the server is draining, or the queue is full
// (backpressure).
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("job queue is full")
)

// admit registers a job record and offers it to the queue without
// blocking. It returns the job's view as admitted — queued, taken before
// a worker can pick the job up — or errDraining or errQueueFull.
func (s *Server) admit(jb *job) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, errDraining
	}
	// The job must be fully initialized before it is offered to the
	// queue: the channel send publishes it to a worker, which reads id
	// and status immediately.
	s.nextID++
	jb.id = fmt.Sprintf("j-%06d", s.nextID)
	jb.created = time.Now()
	jb.status = StatusQueued
	view := jb.view()
	// The gauge goes up before the send: a worker may receive the job and
	// decrement it immediately, so incrementing after the send could let a
	// scrape observe a negative depth.
	s.gQueued.Add(1)
	select {
	case s.queue <- jb:
	default:
		s.gQueued.Add(-1)
		s.nextID--
		s.mRejected.Inc()
		return JobView{}, errQueueFull
	}
	s.jobs[jb.id] = jb
	s.jobOrder = append(s.jobOrder, jb.id)
	s.pruneLocked()
	s.mAccepted.Inc()
	// Write-ahead: the enqueued record makes the job survive a crash from
	// here on. A worker may race ahead and journal `started` first —
	// record order within one job is not load-bearing, the replay fold
	// accepts any interleaving.
	s.journalRec(&durable.Record{
		Type: durable.TypeEnqueued, Job: jb.id,
		Request: jb.reqJSON, Key: string(jb.key),
	})
	return view, nil
}

// pruneLocked drops the oldest completed job records beyond the retention
// budget. Caller holds s.mu.
func (s *Server) pruneLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// lookupJob finds a job record by id.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// registerCached records an already-satisfied request as a completed job so
// cache hits and misses read uniformly through the jobs API.
func (s *Server) registerCached(jb *job) {
	now := time.Now()
	jb.status = StatusDone
	jb.cached = true
	jb.work = nil // never runs; see runJob
	jb.created, jb.started, jb.finished = now, now, now
	s.mu.Lock()
	s.nextID++
	jb.id = fmt.Sprintf("j-%06d", s.nextID)
	s.jobs[jb.id] = jb
	s.jobOrder = append(s.jobOrder, jb.id)
	s.pruneLocked()
	s.mu.Unlock()
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.gQueued.Add(-1)
		s.runJob(jb)
	}
}

// runJob executes one queued job end to end: claim, synthesize under a
// per-job deadline, publish the artifact, settle the record.
func (s *Server) runJob(jb *job) {
	jb.mu.Lock()
	if jb.status != StatusQueued { // canceled while queued
		jb.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), jb.timeout)
	defer cancel()
	jb.status = StatusRunning
	jb.started = time.Now()
	jb.cancel = cancel
	if jb.cancelRequested {
		cancel()
	}
	jb.mu.Unlock()

	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)
	s.gPhasePar.Set(int64(jb.parallelism))
	s.logEvent("job_start", "job", jb.id, "app", jb.app, "ranks", jb.ranks, "parallelism", jb.parallelism, "recovered", jb.recovered)

	// Attempt loop: transient (durability I/O) failures back off and
	// retry within the job's budget, resuming from the latest checkpoint;
	// everything else settles on the first attempt.
	var (
		art          *cache.Artifact
		traceJSON    []byte
		analysisJSON []byte
		err          error
	)
	for {
		jb.mu.Lock()
		jb.attempts++
		attempt := jb.attempts
		jb.mu.Unlock()
		s.journalRec(&durable.Record{Type: durable.TypeStarted, Job: jb.id, Attempt: attempt})
		art, traceJSON, analysisJSON, err = s.runAttempt(ctx, jb)
		if err == nil || !transientErr(err) || attempt > jb.maxRetries || ctx.Err() != nil {
			break
		}
		s.mRetries.Inc()
		delay := s.retryDelay(attempt)
		s.logEvent("job_retry", "job", jb.id, "attempt", attempt, "delay_ms", delay.Milliseconds(), "error", err.Error())
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
	}
	finished := time.Now()

	jb.mu.Lock()
	// A settled job never runs again (runJob only claims queued jobs), so
	// its body goes: a retained record must not pin the job's input — a
	// decoded trace, or a committed upload's whole merge.Ingest and built
	// Program.
	jb.work = nil
	jb.finished = finished
	jb.phase = ""
	jb.traceJSON = traceJSON
	jb.analysisJSON = analysisJSON
	switch {
	case err == nil:
		art.Key = jb.key
		jb.status = StatusDone
		s.mDone.Inc()
	case errors.Is(err, core.ErrCanceled):
		jb.status = StatusCanceled
		jb.errMsg = err.Error()
		s.mCancel.Inc()
	default:
		jb.status = StatusFailed
		jb.errMsg = err.Error()
		s.mFail.Inc()
	}
	status, errMsg := jb.status, jb.errMsg
	byUser := jb.cancelByUser
	dur := jb.finished.Sub(jb.started)
	jb.mu.Unlock()

	// Settle durably. Done and failed jobs write their terminal record and
	// drop their checkpoint. A user cancel is terminal too — the job must
	// not resurrect on restart. A drain or timeout cancellation journals
	// nothing: the job's pending records stand, so the next incarnation
	// re-admits it and resumes from its last checkpoint (the journal-backed
	// half of graceful drain).
	switch {
	case status == StatusDone:
		if perr := s.store.Put(art); perr != nil {
			s.logEvent("cache_disk_error", "job", jb.id, "error", perr.Error())
		}
		s.journalRec(&durable.Record{Type: durable.TypeDone, Job: jb.id, Key: string(jb.key)})
		s.dropCheckpoint(jb.id)
	case status == StatusFailed:
		s.journalRec(&durable.Record{Type: durable.TypeFailed, Job: jb.id, Error: errMsg})
		s.dropCheckpoint(jb.id)
	case status == StatusCanceled && byUser:
		s.journalRec(&durable.Record{Type: durable.TypeFailed, Job: jb.id, Error: "canceled by user"})
		s.dropCheckpoint(jb.id)
	}

	s.hJobDur.Observe(dur.Seconds())
	ev := []any{"job", jb.id, "status", string(status), "duration_ms", dur.Milliseconds()}
	if errMsg != "" {
		ev = append(ev, "error", errMsg)
	}
	s.logEvent("job_end", ev...)
}

// runAttempt executes one synthesis attempt under a fresh tracer. Every
// attempt runs under one: phase spans drive the job record, the per-phase
// histograms, and one log line per transition. Runtime timelines are only
// recorded when the request asked for a trace — they cost memory
// proportional to the run. The observer fires on this goroutine
// (core.Synthesize is synchronous).
func (s *Server) runAttempt(ctx context.Context, jb *job) (*cache.Artifact, []byte, []byte, error) {
	tracer := obs.New()
	if !jb.wantTrace {
		tracer.WithoutTimelines()
	}
	tracer.SetObserver(func(ev obs.PhaseEvent) {
		if !ev.End {
			jb.setPhase(ev.Name)
			s.logEvent("phase", "job", jb.id, "phase", ev.Name)
			return
		}
		secs := ev.Dur.Seconds()
		s.reg.Histogram(fmt.Sprintf("siesta_phase_seconds{phase=%q}", ev.Name),
			"wall-clock time per pipeline phase", nil).Observe(secs)
		overlap := false
		for _, a := range ev.Attrs {
			if a.Key == "overlap" {
				overlap, _ = a.Value.(bool)
				break
			}
		}
		s.observePhase(ev.Name, secs, jb.parallelism, overlap)
	})

	var ck core.Checkpointer
	switch {
	case s.ckpts != nil:
		ck = jobCheckpointer{s: s, jb: jb}
	case s.cfg.CheckpointSink != nil:
		// No state dir, but a fleet sink still wants the phase-boundary
		// blobs (and retries still want the in-memory resume).
		ck = sinkCheckpointer{s: s, jb: jb}
	}
	art, analysisJSON, err := jb.work(ctx, tracer, ck, jb.latestResume())

	// Export the recorded trace even for failed or canceled jobs: a
	// partial timeline is exactly what debugging those needs.
	var traceJSON []byte
	if jb.wantTrace {
		var buf bytes.Buffer
		if werr := tracer.WriteChromeTrace(&buf); werr == nil {
			traceJSON = buf.Bytes()
		}
	}
	return art, traceJSON, analysisJSON, err
}

// countDiags folds one verification report into the severity-labelled
// diagnostic counters.
func (s *Server) countDiags(rep *check.Report) {
	if rep == nil {
		return
	}
	for _, d := range rep.Diags {
		switch d.Severity {
		case check.Info:
			s.mDiagInfo.Inc()
		case check.Warning:
			s.mDiagWarn.Inc()
		default:
			s.mDiagErr.Inc()
		}
	}
}

// analyzeProgram folds the statics collector that observed the check gate
// (core.Options.Analyze) into the job's statics.Report under an "analyze"
// phase span, feeds the analyze-latency histogram with the fold's time, and
// returns the marshaled report. A nil platform resolves the program's
// recorded one.
func (s *Server) analyzeProgram(tracer *obs.Tracer, res *core.Result, plat *platform.Platform) ([]byte, error) {
	var sp *obs.Span
	if tracer != nil {
		sp = tracer.Phase("analyze")
	}
	start := time.Now()
	rep, err := res.Analysis.Report(res.Check, plat)
	s.hAnalyze.Observe(time.Since(start).Seconds())
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("server: analyze: %w", err)
	}
	return json.Marshal(rep)
}

// observePhase folds one phase wall time into the serial/parallel
// aggregates and refreshes the phase's speedup gauges (mean serial time
// over mean parallel time) once both modes have samples. A value above 1
// means parallel jobs clear the phase faster. The overlap label separates
// parallel samples where the phase ran concurrently with another phase
// (the overlapped baseline/trace runs) from plain worker-pool parallelism,
// so a regression in either shows up on its own series.
func (s *Server) observePhase(phase string, secs float64, parallelism int, overlap bool) {
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	pt := s.phaseAgg[phase]
	if pt == nil {
		pt = &phaseTimes{}
		s.phaseAgg[phase] = pt
	}
	if parallelism <= 1 {
		pt.serialSum += secs
		pt.serialN++
	} else {
		i := 0
		if overlap {
			i = 1
		}
		pt.parSum[i] += secs
		pt.parN[i]++
	}
	if pt.serialN == 0 {
		return
	}
	for i, n := range pt.parN {
		if n > 0 && pt.parSum[i] > 0 {
			speedup := (pt.serialSum / float64(pt.serialN)) / (pt.parSum[i] / float64(n))
			s.reg.GaugeFloat(fmt.Sprintf("siesta_phase_speedup{overlap=\"%t\",phase=%q}", i == 1, phase),
				"mean serial over mean parallel phase wall time, split by run overlap").Set(speedup)
		}
	}
}

// requestCancel cancels a job: queued jobs settle immediately, running jobs
// get their context canceled and settle on the worker's path. It reports
// whether the cancellation was accepted (false once the job is terminal).
// byUser distinguishes an explicit DELETE — terminal in the journal — from
// a drain or hard stop, after which the job's pending journal records let
// the next incarnation resume it.
func (s *Server) requestCancel(jb *job, byUser bool) bool {
	jb.mu.Lock()
	switch jb.status {
	case StatusQueued:
		jb.status = StatusCanceled
		jb.work = nil // never runs; see runJob
		jb.errMsg = "canceled while queued"
		jb.finished = time.Now()
		s.mCancel.Inc()
		jb.mu.Unlock()
		// The worker discards it when it reaches the head of the queue;
		// the queued-depth gauge settles there.
		if byUser {
			s.journalRec(&durable.Record{Type: durable.TypeFailed, Job: jb.id, Error: "canceled while queued"})
			s.dropCheckpoint(jb.id)
		}
		return true
	case StatusRunning:
		jb.cancelRequested = true
		if byUser {
			jb.cancelByUser = true
		}
		if jb.cancel != nil {
			jb.cancel()
		}
		jb.mu.Unlock()
		return true
	default:
		jb.mu.Unlock()
		return false
	}
}

// Shutdown drains the service: no new jobs are admitted, queued and
// running jobs finish, then workers exit. If ctx expires first, remaining
// jobs are canceled and Shutdown returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drainDone = make(chan struct{})
		close(s.queue) // safe: admissions hold s.mu and re-check draining
		done := s.drainDone
		go func() {
			s.wg.Wait()
			close(done)
		}()
	}
	// Concurrent and repeat calls all wait on the same drain; returning
	// early just because draining was already set would let a caller
	// proceed before the workers have actually exited.
	done := s.drainDone
	s.mu.Unlock()

	select {
	case <-done:
		s.closeState()
		return nil
	case <-ctx.Done():
		// Hard stop: cancel whatever is still running, then wait for the
		// workers to observe it. These cancellations are not journaled as
		// terminal — interrupted jobs stay pending and are re-admitted by
		// the next incarnation.
		s.mu.Lock()
		for _, jb := range s.jobs {
			s.requestCancel(jb, false)
		}
		s.mu.Unlock()
		<-done
		s.closeState()
		return ctx.Err()
	}
}

// setWork makes one core entry a job's executable body. Every attempt
// runs synth under the attempt's context, tracer, checkpointer and resume
// at the job's parallelism, counts the verifier's diagnostics — from the
// result, or from the gate's failure, so a rejected upload still shows in
// the error counter — and builds the artifact and, when the request asked,
// the static analysis from the gate's own machine run.
func (s *Server) setWork(jb *job, opts core.Options, synth func(core.Options) (*core.Result, error)) {
	opts.Parallelism, opts.Analyze = jb.parallelism, jb.wantAnalyze
	jb.work = func(ctx context.Context, tracer *obs.Tracer, ck core.Checkpointer, resume *core.Checkpoint) (*cache.Artifact, []byte, error) {
		opts := opts
		opts.Context, opts.Tracer, opts.Checkpointer, opts.Resume = ctx, tracer, ck, resume
		res, err := synth(opts)
		var verr *core.VerifyError
		switch {
		case err == nil:
			s.countDiags(res.Check)
		case errors.As(err, &verr):
			s.countDiags(verr.Report)
		}
		if err != nil {
			return nil, nil, err
		}
		var analysis []byte
		if jb.wantAnalyze {
			if analysis, err = s.analyzeProgram(tracer, res, opts.Platform); err != nil {
				return nil, nil, err
			}
		}
		st := res.Program.Stats()
		art := &cache.Artifact{
			App: jb.app, Ranks: jb.ranks,
			CSource:   res.Generated.CSource(),
			Terminals: st.Terminals, Rules: st.Rules, SizeC: res.Generated.SizeC,
			Overhead: res.Overhead, CheckSummary: res.Check.Summary(),
		}
		return art, analysis, nil
	}
}
