package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"siesta/internal/core"
	"siesta/internal/obs"
	"siesta/internal/server/cache"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued → running → done | failed | canceled. A queued job
// may jump straight to canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// job is one synthesis request flowing through the queue. The immutable
// fields are set at admission; everything below mu is the mutable
// lifecycle record shared between the HTTP handlers and the worker.
type job struct {
	id          string
	app         string // app name, or "trace" for uploads
	ranks       int
	parallelism int // capped synthesis parallelism (never part of the key)
	key         cache.Key
	timeout     time.Duration
	wantTrace   bool            // request asked for a runtime trace ("trace": true)
	wantAnalyze bool            // request asked for a static analysis ("analyze": true)
	reqJSON     json.RawMessage // canonical request, journaled at admission
	maxRetries  int             // in-process retry budget for transient failures
	worker      string          // fleet node identity (Config.WorkerID); "" standalone
	// work is the job's body, set before admission. Settling the job sets
	// it to nil under mu, so a retained record does not pin the job's
	// input; only the worker that claimed the queued job calls it.
	work func(ctx context.Context, tracer *obs.Tracer, ck core.Checkpointer, resume *core.Checkpoint) (*cache.Artifact, []byte, error)

	// recovered marks a job re-admitted from the journal (set before
	// admission, immutable after).
	recovered bool

	mu     sync.Mutex
	status Status
	// attempts counts execution starts across all process incarnations
	// (seeded from the journal for recovered jobs).
	attempts        int
	phase           string
	errMsg          string
	cached          bool
	created         time.Time
	started         time.Time
	finished        time.Time
	cancelRequested bool
	cancelByUser    bool // cancellation came from DELETE, not drain/timeout
	cancel          context.CancelFunc
	// resume is the most recent checkpoint: loaded from the state
	// directory at recovery, refreshed by every successful checkpoint
	// save, consumed by retries and restarts.
	resume *core.Checkpoint
	// traceJSON is the Chrome trace_event document recorded for a
	// wantTrace job, set when the job settles and served by
	// GET /v1/jobs/{id}/trace.
	traceJSON []byte
	// analysisJSON is the statics.Report recorded for a wantAnalyze job,
	// set when the job settles and served by GET /v1/jobs/{id}/analysis.
	analysisJSON []byte
}

// JobView is the JSON shape of a job record.
type JobView struct {
	ID          string `json:"id"`
	App         string `json:"app"`
	Ranks       int    `json:"ranks"`
	Parallelism int    `json:"parallelism,omitempty"`
	Status      Status `json:"status"`
	Phase       string `json:"phase,omitempty"`
	Cached      bool   `json:"cached"`
	Recovered   bool   `json:"recovered,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Error       string `json:"error,omitempty"`
	// Worker names the fleet node that ran the job; empty standalone.
	Worker string `json:"worker,omitempty"`
	// CacheKey is the job's content-addressed artifact key, exposed from
	// admission on so clients and peers can address the artifact directly
	// (ArtifactKey repeats it once the job is done, kept for
	// compatibility).
	CacheKey    string     `json:"cache_key,omitempty"`
	ArtifactKey string     `json:"artifact_key,omitempty"`
	TraceURL    string     `json:"trace_url,omitempty"`
	AnalysisURL string     `json:"analysis_url,omitempty"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	DurationMS  int64      `json:"duration_ms,omitempty"`
}

// view snapshots the job under its lock.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, App: j.app, Ranks: j.ranks, Parallelism: j.parallelism,
		Status: j.status, Phase: j.phase, Cached: j.cached, Error: j.errMsg,
		Recovered: j.recovered, Attempts: j.attempts,
		Worker: j.worker, CacheKey: string(j.key),
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.status == StatusDone {
		v.ArtifactKey = string(j.key)
	}
	if len(j.traceJSON) > 0 {
		v.TraceURL = "/v1/jobs/" + j.id + "/trace"
	}
	if len(j.analysisJSON) > 0 {
		v.AnalysisURL = "/v1/jobs/" + j.id + "/analysis"
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		v.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	return v
}

// setPhase records the pipeline phase the job is in (called from the
// worker's phase hook).
func (j *job) setPhase(p string) {
	j.mu.Lock()
	j.phase = p
	j.mu.Unlock()
}

// setResume publishes the latest checkpoint (called from the checkpoint
// save path); latestResume reads it for a retry or restart.
func (j *job) setResume(cp *core.Checkpoint) {
	j.mu.Lock()
	j.resume = cp
	j.mu.Unlock()
}

func (j *job) latestResume() *core.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled
}
