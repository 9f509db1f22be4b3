package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/mpi"
	"siesta/internal/obs"
	"siesta/internal/server/cache"
)

// newTestServer builds a server + HTTP frontend and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// syncBuffer lets the test read the log stream while workers are writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSynthesizeEndToEndAndCacheHit(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{Workers: 2, Logger: obs.EventLogger(&logBuf)})

	req := SynthesizeRequest{App: "CG", Ranks: 8, Iters: 3, Seed: 7}
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || sr.Job.Status != StatusQueued {
		t.Errorf("first request should be queued and uncached: %+v", sr)
	}

	v := waitJob(t, ts.URL, sr.Job.ID)
	if v.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", v.Status, v.Error)
	}
	var art cache.Artifact
	if code := getJSON(t, ts.URL+sr.ArtifactURL, &art); code != http.StatusOK {
		t.Fatalf("GET artifact: %d", code)
	}
	if !strings.Contains(art.CSource, "MPI_Init") {
		t.Error("artifact C source should be an MPI program")
	}
	if art.CheckSummary == "" || art.Terminals == 0 {
		t.Errorf("artifact missing summary/stats: %+v", art.CheckSummary)
	}

	// Identical request: answered from the cache, already done.
	resp2, body2 := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d, want 200: %s", resp2.StatusCode, body2)
	}
	var sr2 SynthesizeResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached || sr2.Job.Status != StatusDone {
		t.Errorf("second request should be a cache hit: %+v", sr2)
	}
	var art2 cache.Artifact
	if code := getJSON(t, ts.URL+sr2.ArtifactURL, &art2); code != http.StatusOK {
		t.Fatalf("GET cached artifact: %d", code)
	}
	if art2.CSource != art.CSource {
		t.Error("cached artifact should be byte-identical")
	}

	// A different seed is a different synthesis → miss.
	req3 := req
	req3.Seed = 8
	resp3, _ := postJSON(t, ts.URL+"/v1/synthesize", req3)
	if resp3.StatusCode != http.StatusAccepted {
		t.Errorf("different options should miss the cache: %d", resp3.StatusCode)
	}

	// Metrics reflect all of it.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mtext, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"siesta_cache_hits_total 1",
		"siesta_cache_misses_total 2",
		"siesta_jobs_accepted_total 2",
		`siesta_jobs_completed_total{status="done"}`,
		"siesta_job_duration_seconds_count",
		`siesta_phase_seconds_bucket{phase="merge",`,
	} {
		if !strings.Contains(string(mtext), want) {
			t.Errorf("metrics missing %q:\n%s", want, mtext)
		}
	}

	// Structured logs carry the phase stream.
	logs := logBuf.String()
	for _, want := range []string{`"event":"job_queued"`, `"event":"phase"`, `"phase":"trace"`,
		`"phase":"codegen"`, `"event":"job_end"`, `"event":"cache_hit"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("log stream missing %q:\n%s", want, logs)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		req  SynthesizeRequest
		want int
	}{
		{SynthesizeRequest{}, http.StatusBadRequest},                                         // no input
		{SynthesizeRequest{App: "CG", TraceBase64: "AAAA", Ranks: 8}, http.StatusBadRequest}, // both inputs
		{SynthesizeRequest{App: "NoSuchApp", Ranks: 8}, http.StatusNotFound},
		{SynthesizeRequest{App: "CG", Ranks: 0}, http.StatusBadRequest},
		{SynthesizeRequest{App: "CG", Ranks: 7}, http.StatusBadRequest}, // CG needs a power of two
		{SynthesizeRequest{App: "CG", Ranks: 8, Platform: "Z"}, http.StatusBadRequest},
		{SynthesizeRequest{TraceBase64: "!!!"}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/synthesize", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status %d, want %d: %s", i, resp.StatusCode, c.want, body)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
}

// blockerJob builds a white-box job whose work blocks until its context is
// canceled or release is closed.
func blockerJob(release chan struct{}) *job {
	return &job{
		app: "blocker", ranks: 1, timeout: time.Minute,
		key: cache.KeyFrom([]byte(fmt.Sprintf("blocker-%p", release))),
		work: func(ctx context.Context, tracer *obs.Tracer, _ core.Checkpointer, _ *core.Checkpoint) (*cache.Artifact, []byte, error) {
			sp := tracer.Phase("baseline")
			defer sp.End()
			select {
			case <-release:
				return &cache.Artifact{App: "blocker"}, nil, nil
			case <-ctx.Done():
				return nil, nil, &mpi.CancelError{Cause: context.Cause(ctx)}
			}
		},
	}
}

func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)

	// Occupy the single worker, then fill the single queue slot.
	running := blockerJob(release)
	if _, err := s.admit(running); err != nil {
		t.Fatal("admit blocker")
	}
	waitStatus(t, running, StatusRunning)
	queued := blockerJob(release)
	if _, err := s.admit(queued); err != nil {
		t.Fatal("admit queued")
	}

	// The next HTTP request must bounce with 429 + Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{App: "CG", Ranks: 8})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}
	if !strings.Contains(metricsText(t, ts), "siesta_jobs_rejected_total 1") {
		t.Error("rejection not counted")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)

	running := blockerJob(release)
	s.admit(running)
	waitStatus(t, running, StatusRunning)
	queued := blockerJob(release)
	s.admit(queued)

	// Cancel the queued job: settles immediately without running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued: %d", resp.StatusCode)
	}
	if v := queued.view(); v.Status != StatusCanceled {
		t.Errorf("queued job after cancel: %s", v.Status)
	}

	// Cancel the running job: its context fires and the worker settles it
	// as canceled with a typed error.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.id, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	v := waitJob(t, ts.URL, running.id)
	if v.Status != StatusCanceled {
		t.Errorf("running job after cancel: %s (%s)", v.Status, v.Error)
	}
	if !strings.Contains(v.Error, "canceled") {
		t.Errorf("cancellation error should be typed: %q", v.Error)
	}

	// Canceling a settled job conflicts.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.id, nil)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal job: %d, want 409", resp3.StatusCode)
	}
}

// mpiGoroutines counts live goroutines currently executing simulated-rank
// code; after a job settles there must be none.
func mpiGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "siesta/internal/mpi.")
}

func TestJobDeadlineReturnsTypedCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// A long synthesis with a 25ms budget: the simulated ranks must be
	// torn down promptly and the job settle as canceled.
	req := SynthesizeRequest{App: "CG", Ranks: 8, Iters: 5000, TimeoutMS: 25}
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	json.Unmarshal(body, &sr)
	v := waitJob(t, ts.URL, sr.Job.ID)
	if v.Status != StatusCanceled {
		t.Fatalf("deadline job: %s (%s), want canceled", v.Status, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("error should name the deadline cause: %q", v.Error)
	}
	if code := getJSON(t, ts.URL+sr.ArtifactURL, nil); code != http.StatusConflict {
		t.Errorf("artifact of canceled job: %d, want 409", code)
	}

	// The torn-down world's rank goroutines must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := mpiGoroutines()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("%d simulated-rank goroutines still alive after deadline-canceled job", n)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTraceUploadSynthesis(t *testing.T) {
	// Produce a real trace out-of-band, as `siesta -trace` would.
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	encoded := base64.StdEncoding.EncodeToString(res.Trace.Encode())

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{TraceBase64: encoded})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST trace = %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	json.Unmarshal(body, &sr)
	v := waitJob(t, ts.URL, sr.Job.ID)
	if v.Status != StatusDone {
		t.Fatalf("trace job: %s (%s)", v.Status, v.Error)
	}
	var art cache.Artifact
	getJSON(t, ts.URL+sr.ArtifactURL, &art)
	if art.App != "trace" || art.Ranks != 8 || !strings.Contains(art.CSource, "MPI_Init") {
		t.Errorf("trace artifact wrong: app=%s ranks=%d", art.App, art.Ranks)
	}

	// Same bytes again → cache hit.
	resp2, _ := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{TraceBase64: encoded})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("identical trace upload should hit the cache: %d", resp2.StatusCode)
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	jobs := []*job{blockerJob(release), blockerJob(release), blockerJob(release)}
	for _, jb := range jobs {
		if _, err := s.admit(jb); err != nil {
			t.Fatal("admit")
		}
	}
	close(release) // jobs finish as the workers reach them

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, jb := range jobs {
		if v := jb.view(); v.Status != StatusDone {
			t.Errorf("job %d after drain: %s", i, v.Status)
		}
	}

	// Admissions after drain are refused politely.
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{App: "CG", Ranks: 8})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while drained: %d: %s", resp.StatusCode, body)
	}
	var hz struct {
		Draining bool `json:"draining"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if !hz.Draining {
		t.Error("healthz should report draining")
	}
}

// TestConcurrentShutdownWaitsForDrain pins the repeat-caller semantics: a
// Shutdown call that finds draining already set must still block until the
// workers have exited, not return early.
func TestConcurrentShutdownWaitsForDrain(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	jb := blockerJob(release)
	if _, err := s.admit(jb); err != nil {
		t.Fatal("admit")
	}
	waitStatus(t, jb, StatusRunning)

	const callers = 3
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			errs <- s.Shutdown(ctx)
		}()
	}
	// With the worker still blocked, no caller may return yet.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("Shutdown returned before drain (err=%v)", err)
	default:
	}

	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("shutdown caller %d: %v", i, err)
		}
	}
	if v := jb.view(); v.Status != StatusDone {
		t.Errorf("job after drain: %s", v.Status)
	}
}

func TestListJobsAndApps(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	s.admit(blockerJob(release))

	var jobs []JobView
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Errorf("list jobs: code %d, %d jobs", code, len(jobs))
	}
	var appList []struct{ Name string }
	if code := getJSON(t, ts.URL+"/v1/apps", &appList); code != http.StatusOK || len(appList) == 0 {
		t.Errorf("list apps: code %d, %d apps", code, len(appList))
	}
}

// waitStatus spins until the job reaches the wanted status.
func waitStatus(t *testing.T, jb *job, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if jb.view().Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %s)", jb.id, want, jb.view().Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}
