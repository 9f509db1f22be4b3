package server

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// maxRequestBody bounds POST bodies (uploaded traces dominate): 16 MiB.
const maxRequestBody = 16 << 20

// SynthesizeRequest is the POST /v1/synthesize body. Exactly one of App or
// TraceBase64 selects the input; the remaining fields tune the synthesis.
type SynthesizeRequest struct {
	// App names a built-in application (see GET /v1/apps).
	App   string `json:"app,omitempty"`
	Ranks int    `json:"ranks,omitempty"`
	Iters int    `json:"iters,omitempty"`

	// TraceBase64 is a standard-base64 encoded Siesta trace (the bytes
	// `siesta -trace` writes); merge, verification, and code generation
	// run on it directly, with no simulated execution.
	TraceBase64 string `json:"trace_base64,omitempty"`

	Platform string  `json:"platform,omitempty"` // generation platform name; default A
	Impl     string  `json:"impl,omitempty"`     // MPI implementation name; default openmpi
	Scale    float64 `json:"scale,omitempty"`    // shrink factor; 0/1 = unscaled
	Seed     uint64  `json:"seed,omitempty"`

	// TimeoutMS overrides the server's per-job wall-clock budget; values
	// above the server limit are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Parallelism requests a synthesis worker count for this job, clamped
	// to the server's MaxParallelism (which is also the default when
	// omitted). It never changes the synthesized output — parallel and
	// serial runs are byte-identical — so it does not enter the artifact
	// cache key: a proxy synthesized at any parallelism answers all of
	// them.
	Parallelism int `json:"parallelism,omitempty"`

	// Trace requests a Chrome trace_event recording of the job: pipeline
	// phase spans plus per-rank runtime timelines, served at
	// GET /v1/jobs/{id}/trace once the job settles. Traced jobs always
	// synthesize — there is no run to record on a cache hit — but their
	// artifact still lands in the cache for later requests.
	Trace bool `json:"trace,omitempty"`

	// Analyze requests a static communication-cost analysis of the job's
	// merged program (see internal/statics): the full statics.Report —
	// volume matrix, per-rank totals, collective stats, cluster costs and
	// the critical-path lower bound — served at GET /v1/jobs/{id}/analysis
	// once the job settles. Like Trace, analyzed jobs always synthesize (a
	// cache hit carries no program to analyze), but their artifact still
	// lands in the cache for later requests.
	Analyze bool `json:"analyze,omitempty"`

	// MaxRetries caps in-process retries of transient failures (checkpoint
	// or journal I/O errors; the synthesis itself was healthy). Values
	// above the server limit are clamped to it; omitted selects the server
	// limit. 0 disables retries for this job.
	MaxRetries *int `json:"max_retries,omitempty"`

	// ResumeBase64 optionally seeds the job with a phase-boundary
	// checkpoint (standard base64 of core.Checkpoint.Encode bytes)
	// exported from another node — the fleet gateway's failover handoff:
	// when a worker dies mid-job, the gateway re-submits the original
	// request to a new owner with the replicated checkpoint attached, and
	// the new worker resumes from the last completed boundary instead of
	// phase zero. A checkpoint whose options fingerprint does not match
	// this request is ignored (clean cold run); a blob that does not even
	// decode is a 400. It never participates in the artifact cache key.
	ResumeBase64 string `json:"resume_base64,omitempty"`
}

// SynthesizeResponse answers POST /v1/synthesize.
type SynthesizeResponse struct {
	Job    JobView `json:"job"`
	Cached bool    `json:"cached"`
	// CacheKey is the content-addressed artifact key (hex sha256 over the
	// input identity plus the canonical options fingerprint) this request
	// resolves to. It is location-independent: any fleet replica holding
	// the key serves the same bytes, and the gateway consistent-hash
	// routes on it.
	CacheKey string `json:"cache_key"`
	// ArtifactURL is where the generated proxy can be fetched once the
	// job is done.
	ArtifactURL string `json:"artifact_url"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleGetArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleGetTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/analysis", s.handleGetAnalysis)
	mux.HandleFunc("POST /v1/traces", s.handleTraceOpen)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceStatus)
	mux.HandleFunc("PUT /v1/traces/{id}/ranks/{rank}", s.handleTraceAppend)
	mux.HandleFunc("POST /v1/traces/{id}/commit", s.handleTraceCommit)
	mux.HandleFunc("DELETE /v1/traces/{id}", s.handleTraceAbort)
	mux.HandleFunc("GET /v1/apps", s.handleListApps)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Standard Go profiling endpoints: CPU/heap/goroutine profiles of the
	// service itself, the other half of the observability story.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	if s.cfg.WorkerID == "" {
		return mux
	}
	// Fleet mode: stamp every response with the node that served it, so
	// clients (and the gateway's proxied responses) can attribute work.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Siesta-Worker", s.cfg.WorkerID)
		mux.ServeHTTP(w, r)
	})
}

// baseOptions builds the synthesis options the tuning fields of a request
// select (ranks still unset). It is the shared root of every cache key, so
// the gateway's routing key and the worker's cache key are derived from
// identical options by construction.
func baseOptions(plat, impl string, scale float64, seed uint64) (core.Options, error) {
	opts := core.Options{Scale: scale, Seed: seed}
	if plat != "" {
		p, err := platform.ByName(plat)
		if err != nil {
			return core.Options{}, err
		}
		opts.Platform = p
	}
	if impl != "" {
		im, err := netmodel.ByName(impl)
		if err != nil {
			return core.Options{}, err
		}
		opts.Impl = im
	}
	return opts, nil
}

// traceOptions completes the options of an uploaded trace, one-shot or
// streamed. Uploads synthesize against an exact (noiseless) B matrix, and
// the options say so, so the fingerprint keying the artifact names the
// proxy actually served: core.SynthesizeTrace under these options
// reproduces it byte for byte.
func traceOptions(opts core.Options, ranks int) core.Options {
	opts.Ranks = ranks
	opts.BenchNoise = perfmodel.NewNoise(0, 0)
	return opts
}

// appCacheKey derives the artifact key for a built-in-app request. The
// derivation (sections and their order) is load-bearing: disk artifact
// tiers and fleet routing both address by it.
func appCacheKey(name string, iters int, opts core.Options) cache.Key {
	var itersBuf [8]byte
	binary.BigEndian.PutUint64(itersBuf[:], uint64(iters))
	return cache.KeyFrom(
		[]byte("app:"+name), itersBuf[:],
		[]byte(core.OptionsFingerprint(opts)),
	)
}

// traceCacheKey derives the artifact key for an uploaded-trace request from
// the raw trace bytes plus the options fingerprint.
func traceCacheKey(raw []byte, opts core.Options) cache.Key {
	return cache.KeyFrom(
		[]byte("trace:"), raw,
		[]byte(core.OptionsFingerprint(opts)),
	)
}

// input is a validated request's input with the synthesis options (ranks
// set, throughput knobs not) and cache key it resolves to.
type input struct {
	opts core.Options
	key  cache.Key
	spec *apps.Spec   // the built-in app; nil for an uploaded trace
	tr   *trace.Trace // the uploaded trace; nil for an app
}

// resolve validates a request's input and derives its options and cache
// key: the shared root of prepare and RequestKey. An uploaded trace is
// decoded in full only when decode is set; the key needs just the rank
// count from its header. The status is the HTTP code for a validation
// failure.
func resolve(req *SynthesizeRequest, decode bool) (*input, int, error) {
	if (req.App == "") == (req.TraceBase64 == "") {
		return nil, http.StatusBadRequest, errors.New("exactly one of app or trace_base64 is required")
	}
	opts, err := baseOptions(req.Platform, req.Impl, req.Scale, req.Seed)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.App != "" {
		spec, err := apps.ByName(req.App)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		if req.Ranks <= 0 {
			return nil, http.StatusBadRequest, errors.New("ranks must be positive")
		}
		opts.Ranks = req.Ranks
		return &input{opts: opts, key: appCacheKey(spec.Name, req.Iters, opts), spec: spec}, 0, nil
	}
	raw, err := base64.StdEncoding.DecodeString(req.TraceBase64)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("trace_base64: %w", err)
	}
	in := &input{}
	ranks, err := trace.DecodeNumRanks(raw)
	if err == nil && decode {
		in.tr, err = trace.Decode(raw)
	}
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("trace_base64: %w", err)
	}
	in.opts = traceOptions(opts, ranks)
	in.key = traceCacheKey(raw, in.opts)
	return in, 0, nil
}

// RequestKey computes the content-addressed artifact cache key a request
// resolves to — the same derivation prepare uses — without building the
// job. The fleet gateway consistent-hash routes every request on it, which
// is what makes routing agree with caching: the worker that owns a key on
// the ring is the worker whose cache fills with it. An uploaded trace is
// checked only up to its header; the worker's full decode rejects one
// that is corrupt past it.
func RequestKey(req *SynthesizeRequest) (cache.Key, error) {
	in, _, err := resolve(req, false)
	if err != nil {
		return "", err
	}
	return in.key, nil
}

// clamp bounds a request's throughput knobs by the server's limits: the
// timeout and retry budget may only shrink the configured ones, and a
// parallelism outside [1, MaxParallelism] selects the cap. None of them
// enter the cache key.
func (s *Server) clamp(timeoutMS int64, parallelism int, maxRetries *int) (time.Duration, int, int) {
	timeout := s.cfg.JobTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	if parallelism <= 0 || parallelism > s.cfg.MaxParallelism {
		parallelism = s.cfg.MaxParallelism
	}
	retries := s.cfg.MaxRetries
	if maxRetries != nil {
		retries = min(max(*maxRetries, 0), retries)
	}
	return timeout, parallelism, retries
}

// prepare validates a request and turns it into a ready-to-queue job with
// its cache key. The returned status is the HTTP code for a validation
// failure.
func (s *Server) prepare(req *SynthesizeRequest) (*job, int, error) {
	in, status, err := resolve(req, true)
	if err != nil {
		return nil, status, err
	}
	// The verbatim request is what the journal replays through this same
	// prepare path on recovery — marshal it once, canonically.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("encode request: %w", err)
	}
	jb := &job{key: in.key, wantTrace: req.Trace, wantAnalyze: req.Analyze,
		reqJSON: reqJSON, worker: s.cfg.WorkerID}
	jb.timeout, jb.parallelism, jb.maxRetries = s.clamp(req.TimeoutMS, req.Parallelism, req.MaxRetries)
	// A handed-off checkpoint seeds the first attempt's resume. Garbage
	// that does not even decode is the client's error; a well-formed
	// checkpoint from a different synthesis is silently discarded by the
	// fingerprint guard downstream.
	if req.ResumeBase64 != "" {
		blob, err := base64.StdEncoding.DecodeString(req.ResumeBase64)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("resume_base64: %w", err)
		}
		cp, err := core.DecodeCheckpoint(blob)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("resume_base64: %w", err)
		}
		jb.resume = cp
	}
	if in.tr != nil {
		jb.app, jb.ranks = "trace", len(in.tr.Ranks)
		s.setWork(jb, in.opts, func(opts core.Options) (*core.Result, error) {
			return core.SynthesizeTrace(in.tr, opts)
		})
		return jb, 0, nil
	}
	fn, err := in.spec.Build(apps.Params{Ranks: req.Ranks, Iters: req.Iters})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	jb.app, jb.ranks = in.spec.Name, req.Ranks
	s.setWork(jb, in.opts, func(opts core.Options) (*core.Result, error) {
		return core.Synthesize(fn, opts)
	})
	return jb, 0, nil
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req SynthesizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	jb, status, err := s.prepare(&req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	s.submit(w, jb, nil)
}

// submit is the one admission path behind both upload transports, once a
// request has become a job with its cache key. Identical finished work is
// answered from the artifact cache without touching the queue — unless the
// job wants a trace or an analysis, which only a fresh run can record. A
// miss is admitted to the queue, or refused with 503 while draining and
// 429 when the queue is full.
//
// settled, when non-nil, is the streamed transport's own step: it runs
// once the job is a cache hit (admitted false) or admitted, before the
// response is written, and wraps the SynthesizeResponse in the
// transport's response type.
func (s *Server) submit(w http.ResponseWriter, jb *job, settled func(sr SynthesizeResponse, admitted bool) any) {
	sr, status := SynthesizeResponse{Cached: true}, http.StatusOK
	if !jb.wantTrace && !jb.wantAnalyze && s.cached(jb.key) {
		s.mHits.Inc()
		s.registerCached(jb)
		s.logEvent("cache_hit", "job", jb.id, "app", jb.app, "key", string(jb.key))
		sr.Job = jb.view()
	} else {
		s.mMisses.Inc()
		view, err := s.admit(jb)
		switch {
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		case err != nil:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "job queue is full (%d queued)", s.cfg.QueueDepth)
			return
		}
		s.logEvent("job_queued", "job", jb.id, "app", jb.app, "ranks", jb.ranks, "key", string(jb.key))
		sr, status = SynthesizeResponse{Job: view}, http.StatusAccepted
	}
	sr.CacheKey, sr.ArtifactURL = string(jb.key), "/v1/jobs/"+jb.id+"/artifact"
	var body any = sr
	if settled != nil {
		body = settled(sr, !sr.Cached)
	}
	writeJSON(w, status, body)
}

// cached reports whether key's artifact is in the local tiers. A local
// miss consults the fleet peers before conceding: an artifact computed by
// any replica answers here, and is adopted into the local tiers so the
// next hit is local.
func (s *Server) cached(key cache.Key) bool {
	if _, ok := s.store.Get(key); ok {
		return true
	}
	if s.cfg.PeerFetch == nil {
		return false
	}
	art, ok := s.cfg.PeerFetch(key)
	if !ok || art == nil || art.Key != key {
		return false
	}
	if perr := s.store.Put(art); perr != nil {
		s.logEvent("cache_disk_error", "key", string(key), "error", perr.Error())
	}
	s.mPeerHits.Inc()
	return true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobOrder))
	jobs := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, jb := range jobs {
		views = append(views, jb.view())
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.view())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !s.requestCancel(jb, true) {
		writeError(w, http.StatusConflict, "job %s already %s", jb.id, jb.view().Status)
		return
	}
	s.logEvent("job_cancel", "job", jb.id)
	writeJSON(w, http.StatusOK, jb.view())
}

func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	v := jb.view()
	if v.Status != StatusDone {
		writeError(w, http.StatusConflict, "job %s is %s, artifact not available", jb.id, v.Status)
		return
	}
	art, ok := s.store.Get(jb.key)
	if !ok {
		// Evicted since completion: the job record outlived the artifact.
		writeError(w, http.StatusGone, "artifact for job %s was evicted; re-submit the request", jb.id)
		return
	}
	writeJSON(w, http.StatusOK, art)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	jb.mu.Lock()
	data := jb.traceJSON
	status := jb.status
	wantTrace := jb.wantTrace
	jb.mu.Unlock()
	switch {
	case len(data) > 0:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case !wantTrace:
		writeError(w, http.StatusNotFound,
			"job %s was not traced; re-submit with \"trace\": true", jb.id)
	case status == StatusQueued || status == StatusRunning:
		writeError(w, http.StatusConflict, "job %s is %s, trace not available yet", jb.id, status)
	default:
		writeError(w, http.StatusNotFound, "no trace recorded for job %s", jb.id)
	}
}

func (s *Server) handleGetAnalysis(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	jb.mu.Lock()
	data := jb.analysisJSON
	status := jb.status
	wantAnalyze := jb.wantAnalyze
	jb.mu.Unlock()
	switch {
	case len(data) > 0:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case !wantAnalyze:
		writeError(w, http.StatusNotFound,
			"job %s was not analyzed; re-submit with \"analyze\": true", jb.id)
	case status == StatusQueued || status == StatusRunning:
		writeError(w, http.StatusConflict, "job %s is %s, analysis not available yet", jb.id, status)
	default:
		writeError(w, http.StatusNotFound, "no analysis recorded for job %s", jb.id)
	}
}

func (s *Server) handleListApps(w http.ResponseWriter, r *http.Request) {
	type appView struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []appView
	for _, spec := range apps.All() {
		out = append(out, appView{Name: spec.Name, Description: spec.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": draining})
}

// handleReadyz is the routing gate /healthz is not: liveness stays 200 for
// as long as the process can answer at all, while readiness is 503 until
// journal recovery has completed and again once draining starts — the
// fleet gateway only routes to ready workers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not ready"})
}
