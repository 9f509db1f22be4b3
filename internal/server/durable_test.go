package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/durable"
)

// newStateServer is newTestServer with a state directory.
func newStateServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StateDir = dir
	return newTestServer(t, cfg)
}

// journalPath returns the journal file under a state dir.
func journalPath(dir string) string { return filepath.Join(dir, "journal.wal") }

// reduceJournal reads and folds the journal without opening it for append
// (the server may still own it).
func reduceJournal(t *testing.T, dir string) map[string]*durable.JobState {
	t.Helper()
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := durable.Replay(data)
	states, _ := durable.Reduce(recs)
	return states
}

// seedJournal writes records into a fresh journal and closes it, simulating
// the leavings of a crashed process.
func seedJournal(t *testing.T, dir string, recs ...durable.Record) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := durable.Open(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := j.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryRunsInterruptedJob: a job that was enqueued and started when
// the process died is re-admitted under its original id, runs to done, and
// its terminal record lands in the journal.
func TestRecoveryRunsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	req := mustJSON(t, SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2})
	seedJournal(t, dir,
		durable.Record{Type: durable.TypeEnqueued, Job: "j-000042", Request: req},
		durable.Record{Type: durable.TypeStarted, Job: "j-000042", Attempt: 1},
	)

	s, ts := newStateServer(t, dir, Config{Workers: 1})
	if got := s.mRecovered.Value(); got != 1 {
		t.Fatalf("siesta_jobs_recovered_total = %d, want 1", got)
	}
	v := waitJob(t, ts.URL, "j-000042")
	if v.Status != StatusDone {
		t.Fatalf("recovered job settled %s (%s)", v.Status, v.Error)
	}
	if !v.Recovered || v.Attempts < 2 {
		t.Errorf("view: recovered=%v attempts=%d, want recovered with attempts >= 2", v.Recovered, v.Attempts)
	}
	// Fresh admissions must not collide with the recovered id.
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2, Trace: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit after recovery: %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Job.ID == "j-000042" {
		t.Error("fresh job reused the recovered id")
	}
	waitJob(t, ts.URL, sr.Job.ID)

	states := reduceJournal(t, dir)
	if st := states["j-000042"]; st == nil || st.Terminal != durable.TypeDone {
		t.Fatalf("journal does not settle the recovered job as done: %+v", st)
	}
	// The phase checkpoints were persisted along the way.
	if got := s.mCkptW.Value(); got == 0 {
		t.Error("siesta_checkpoints_written_total stayed 0")
	}
}

// TestRecoveryResumesFromCheckpointByteIdentical: the crash-recovery half
// of the correctness contract, through the whole service — a job restarted
// from its post-trace checkpoint must publish the artifact an uninterrupted
// run publishes, byte for byte.
func TestRecoveryResumesFromCheckpointByteIdentical(t *testing.T) {
	// Control: what an uninterrupted service run produces.
	ctrlDir := t.TempDir()
	_, ctrlTS := newStateServer(t, ctrlDir, Config{Workers: 1})
	resp, body := postJSON(t, ctrlTS.URL+"/v1/synthesize", SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("control submit: %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ctrlTS.URL, sr.Job.ID)
	var ctrlArt struct {
		CSource      string `json:"c_source"`
		CheckSummary string `json:"check_summary"`
	}
	if code := getJSON(t, ctrlTS.URL+"/v1/jobs/"+sr.Job.ID+"/artifact", &ctrlArt); code != http.StatusOK {
		t.Fatalf("control artifact: %d", code)
	}

	// Build the interrupted state by hand: a post-trace checkpoint with
	// the fingerprint the server's prepare path computes for this request.
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	capture := &captureCheckpointer{}
	if _, err := core.Synthesize(fn, core.Options{Ranks: 8, Checkpointer: capture}); err != nil {
		t.Fatal(err)
	}
	var postTrace *core.Checkpoint
	for _, cp := range capture.saved {
		if cp.Phase == core.PhaseTrace {
			postTrace = cp
		}
	}
	if postTrace == nil {
		t.Fatal("no post-trace checkpoint captured")
	}

	dir := t.TempDir()
	ckpts, err := durable.NewCheckpointStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := ckpts.Save("j-000007", postTrace.Encode())
	if err != nil {
		t.Fatal(err)
	}
	req := mustJSON(t, SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2})
	seedJournal(t, dir,
		durable.Record{Type: durable.TypeEnqueued, Job: "j-000007", Request: req},
		durable.Record{Type: durable.TypeStarted, Job: "j-000007", Attempt: 1},
		durable.Record{Type: durable.TypeCheckpoint, Job: "j-000007", Phase: core.PhaseTrace, File: name},
	)

	_, ts := newStateServer(t, dir, Config{Workers: 1})
	v := waitJob(t, ts.URL, "j-000007")
	if v.Status != StatusDone {
		t.Fatalf("resumed job settled %s (%s)", v.Status, v.Error)
	}
	var art struct {
		CSource      string `json:"c_source"`
		CheckSummary string `json:"check_summary"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j-000007/artifact", &art); code != http.StatusOK {
		t.Fatalf("resumed artifact: %d", code)
	}
	if art.CSource != ctrlArt.CSource {
		t.Error("resumed artifact C source differs from uninterrupted control run")
	}
	if art.CheckSummary != ctrlArt.CheckSummary {
		t.Errorf("resumed check summary %q != control %q", art.CheckSummary, ctrlArt.CheckSummary)
	}
}

// captureCheckpointer collects checkpoints without persisting them.
type captureCheckpointer struct{ saved []*core.Checkpoint }

func (c *captureCheckpointer) Save(cp *core.Checkpoint) error {
	c.saved = append(c.saved, cp)
	return nil
}

// TestRecoveryAbandonsCrashLoopingJob: a job already started maxRecoveries
// times is not re-admitted; recovery settles it failed.
func TestRecoveryAbandonsCrashLoopingJob(t *testing.T) {
	dir := t.TempDir()
	req := mustJSON(t, SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2})
	recs := []durable.Record{{Type: durable.TypeEnqueued, Job: "j-000009", Request: req}}
	for a := 1; a <= maxRecoveries; a++ {
		recs = append(recs, durable.Record{Type: durable.TypeStarted, Job: "j-000009", Attempt: a})
	}
	seedJournal(t, dir, recs...)

	s, ts := newStateServer(t, dir, Config{Workers: 1})
	if got := s.mRecovered.Value(); got != 0 {
		t.Fatalf("crash-looping job was recovered (%d)", got)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j-000009", nil); code != http.StatusNotFound {
		t.Errorf("abandoned job visible in the API: %d", code)
	}
	states := reduceJournal(t, dir)
	st := states["j-000009"]
	if st == nil || st.Terminal != durable.TypeFailed || !strings.Contains(st.Error, "abandoned") {
		t.Fatalf("journal state: %+v, want failed/abandoned", st)
	}
}

// TestDiskCacheSurvivesRestart: an artifact synthesized by one incarnation
// answers the identical request in the next from disk.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2}

	s1, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postJSON(t, ts1.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ts1.URL, sr.Job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, ts2 := newStateServer(t, dir, Config{Workers: 1})
	resp, body = postJSON(t, ts2.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical request after restart should hit the disk cache: %d: %s", resp.StatusCode, body)
	}
	var sr2 SynthesizeResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Error("response not marked cached")
	}
	if got := s2.mHits.Value(); got != 1 {
		t.Errorf("cache hits after restart = %d, want 1", got)
	}
}

// TestRetryThenTerminalFailure: checkpoint I/O failures are transient —
// the job retries with backoff up to max_retries, then settles failed with
// a durable terminal record.
func TestRetryThenTerminalFailure(t *testing.T) {
	dir := t.TempDir()
	s, ts := newStateServer(t, dir, Config{Workers: 1})
	s.retryBase = time.Millisecond

	// Break the checkpoint store: replace its directory with a file so
	// every blob write fails.
	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.RemoveAll(ckDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	two := 2
	resp, body := postJSON(t, ts.URL+"/v1/synthesize",
		SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2, MaxRetries: &two})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, ts.URL, sr.Job.ID)
	if v.Status != StatusFailed {
		t.Fatalf("job settled %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "checkpoint") {
		t.Errorf("failure does not name the checkpoint layer: %q", v.Error)
	}
	if v.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", v.Attempts)
	}
	if got := s.mRetries.Value(); got != 2 {
		t.Errorf("siesta_job_retries_total = %d, want 2", got)
	}
	states := reduceJournal(t, dir)
	if st := states[sr.Job.ID]; st == nil || st.Terminal != durable.TypeFailed {
		t.Fatalf("journal state: %+v, want terminal failed", st)
	}
}

// TestUserCancelIsTerminalDrainIsNot: an explicit DELETE settles the job
// in the journal; a hard-stop drain leaves it pending so the next
// incarnation re-admits it.
func TestUserCancelIsTerminalDrainIsNot(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	reqJSON := mustJSON(t, SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2})
	release := make(chan struct{})
	defer close(release)

	// Job A: user-canceled while running.
	ja := blockerJob(release)
	ja.reqJSON = reqJSON
	if _, err := s1.admit(ja); err != nil {
		t.Fatal("admit A")
	}
	waitStatus(t, ja, StatusRunning)
	if !s1.requestCancel(ja, true) {
		t.Fatal("cancel A")
	}
	waitStatus(t, ja, StatusCanceled)

	// Job B: still running when the service is hard-stopped.
	jbB := blockerJob(release)
	jbB.reqJSON = reqJSON
	if _, err := s1.admit(jbB); err != nil {
		t.Fatal("admit B")
	}
	waitStatus(t, jbB, StatusRunning)

	expired, cancel := context.WithCancel(context.Background())
	cancel() // already-expired context forces the hard-stop path
	s1.Shutdown(expired)
	ts1.Close()

	s2, ts2 := newStateServer(t, dir, Config{Workers: 1})
	if got := s2.mRecovered.Value(); got != 1 {
		t.Fatalf("recovered %d jobs, want exactly the drain-interrupted one", got)
	}
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+ja.id, nil); code != http.StatusNotFound {
		t.Errorf("user-canceled job resurrected: %d", code)
	}
	v := waitJob(t, ts2.URL, jbB.id)
	if v.Status != StatusDone {
		t.Fatalf("drain-interrupted job settled %s (%s)", v.Status, v.Error)
	}
}

// TestStartupSweepsStaleSpill: spill files a killed process left under the
// state dir are dead (uploads are not durable), so startup removes them
// and leaves everything else. A spilling upload then gets one spill file
// in that directory for its session, gone once the session is aborted.
func TestStartupSweepsStaleSpill(t *testing.T) {
	dir := t.TempDir()
	spill := spillDir(dir)
	if err := os.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(spill, "siesta-spill-123.bin")
	keep := filepath.Join(spill, "notes.txt")
	for _, p := range []string{stale, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newStateServer(t, dir, Config{Workers: 1})
	left, err := filepath.Glob(filepath.Join(spill, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0] != keep {
		t.Fatalf("spill dir after startup holds %v, want only %s", left, keep)
	}

	streams := chunkStreams(t, recordedTrace(t, 4))
	resp, body := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: len(streams), SpillHighWater: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	for r, stream := range streams[:2] {
		if code, body := doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/traces/%s/ranks/%d", ts.URL, open.ID, r), stream, nil); code != http.StatusOK {
			t.Fatalf("PUT rank %d: %d: %s", r, code, body)
		}
	}
	spillFiles := func() int {
		m, err := filepath.Glob(filepath.Join(spill, "siesta-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	if n := spillFiles(); n != 1 {
		t.Fatalf("%d spill files for one spilling session, want 1", n)
	}
	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/traces/"+open.ID, nil, nil); code >= 300 {
		t.Fatalf("abort = %d: %s", code, body)
	}
	if n := spillFiles(); n != 0 {
		t.Fatalf("%d spill files left after abort", n)
	}
}
