package server

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/durable"
	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/obs"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// submitTrace posts a one-shot trace_base64 request and returns the job's
// terminal view and, when it is done, the served artifact.
func submitTrace(t *testing.T, base string, req SynthesizeRequest) (SynthesizeResponse, JobView, *cache.Artifact) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST trace = %d: %s", resp.StatusCode, body)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, base, sr.Job.ID)
	if v.Status != StatusDone {
		return sr, v, nil
	}
	var art cache.Artifact
	if code := getJSON(t, base+sr.ArtifactURL, &art); code != http.StatusOK {
		t.Fatalf("GET artifact = %d", code)
	}
	return sr, v, &art
}

// streamTrace uploads a trace through a /v1/traces session and commits it,
// returning the commit response.
func streamTrace(t *testing.T, base string, tr *trace.Trace, open TraceOpenRequest) TraceCommitResponse {
	t.Helper()
	streams := chunkStreams(t, tr)
	open.NumRanks = len(streams)
	resp, body := postJSON(t, base+"/v1/traces", open)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var o TraceOpenResponse
	if err := json.Unmarshal(body, &o); err != nil {
		t.Fatal(err)
	}
	putChunks(t, base, o.ID, streams, 4096)
	var cr TraceCommitResponse
	if code, body := doJSON(t, http.MethodPost, base+"/v1/traces/"+o.ID+"/commit", nil, &cr); code != http.StatusAccepted {
		t.Fatalf("commit = %d: %s", code, body)
	}
	return cr
}

// The options an upload is keyed by are the options it is synthesized
// under: for both transports, core.SynthesizeTrace with the options whose
// fingerprint the served cache key carries reproduces the served C source.
func TestUploadKeyNamesServedProxy(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, ts := newTestServer(t, Config{Workers: 1})
	raw := tr.Encode()
	req := SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(raw)}
	sr, v, art := submitTrace(t, ts.URL, req)
	if art == nil {
		t.Fatalf("one-shot job: %s (%s)", v.Status, v.Error)
	}
	in, _, err := resolve(&req, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := traceCacheKey(raw, in.opts); string(got) != sr.CacheKey {
		t.Fatalf("served key %s was not derived from the resolved options (%s)", sr.CacheKey, got)
	}
	want, err := core.SynthesizeTrace(in.tr, in.opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.CSource != want.Generated.CSource() {
		t.Error("served trace_base64 C source differs from core.SynthesizeTrace under its keyed options")
	}
	// Those options name the exact B matrix uploads have always been
	// generated against: the pipeline's public calls with no bench noise
	// serve the same bytes.
	prog, err := merge.Build(in.tr, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := check.Verify(prog, check.Options{ExactBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := codegen.Generate(prog, codegen.Options{Check: rep})
	if err != nil {
		t.Fatal(err)
	}
	if art.CSource != exact.CSource() {
		t.Error("served trace_base64 C source is not the noiseless generation")
	}

	cr := streamTrace(t, ts.URL, tr, TraceOpenRequest{})
	if v := waitJob(t, ts.URL, cr.Job.ID); v.Status != StatusDone {
		t.Fatalf("streamed job: %s (%s)", v.Status, v.Error)
	}
	var streamed cache.Artifact
	getJSON(t, ts.URL+cr.ArtifactURL, &streamed)
	opts, err := ingestOptions(&TraceOpenRequest{NumRanks: len(tr.Ranks)})
	if err != nil {
		t.Fatal(err)
	}
	if core.OptionsFingerprint(opts) != core.OptionsFingerprint(in.opts) {
		t.Error("streamed and one-shot uploads of one trace key different options")
	}
	if streamed.CSource != want.Generated.CSource() {
		t.Error("served streamed C source differs from core.SynthesizeTrace under its keyed options")
	}
}

// A trace that fails the static verification gate fails its job, and the
// gate's diagnostics still reach the error counter.
func TestFailingUploadCountsDiagnostics(t *testing.T) {
	spec, err := apps.ByName("Sweep3d")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 4, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one send from one rank. A dropped receive would not do: it only
	// leaves an unreceived eager send, which the verifier reports as a
	// warning. A dropped send leaves its peer's blocking receive waiting
	// forever: an error.
	tr, rt := res.Trace, res.Trace.Ranks[1]
	dropped := false
	for i, id := range rt.Events {
		if rec := rt.Table[id]; rec.Func == mpicall.Send && rec.DestRel != trace.NoRank {
			rt.Events = append(rt.Events[:i:i], rt.Events[i+1:]...)
			rt.Durs = append(rt.Durs[:i:i], rt.Durs[i+1:]...)
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("rank 1 recorded no send to drop")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	_, v, _ := submitTrace(t, ts.URL, SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode())})
	if v.Status != StatusFailed {
		t.Fatalf("corrupted upload settled %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "static verification") {
		t.Errorf("failure does not name the verification gate: %q", v.Error)
	}
	if got := s.mDiagErr.Value(); got == 0 {
		t.Error(`siesta_check_diagnostics_total{severity="error"} stayed 0 for a failing upload`)
	}
}

// A trace_base64 job writes exactly one checkpoint — program only, at the
// merge boundary — and a restart that resumes from it skips the merge and
// serves the byte-identical artifact.
func TestTraceUploadResumesFromMergeCheckpoint(t *testing.T) {
	tr := recordedTrace(t, 8)
	req := SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode())}

	var mu sync.Mutex
	var blobs [][]byte
	_, ctrlTS := newTestServer(t, Config{Workers: 1, CheckpointSink: func(_ cache.Key, blob []byte) {
		mu.Lock()
		blobs = append(blobs, blob)
		mu.Unlock()
	}})
	_, v, ctrlArt := submitTrace(t, ctrlTS.URL, req)
	if ctrlArt == nil {
		t.Fatalf("control job: %s (%s)", v.Status, v.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(blobs) != 1 {
		t.Fatalf("trace job wrote %d checkpoints, want 1", len(blobs))
	}
	cp, err := core.DecodeCheckpoint(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if cp.Phase != core.PhaseMerge || len(cp.ProgramBytes) == 0 || len(cp.TraceBytes) != 0 || len(cp.MemoBytes) != 0 {
		t.Fatalf("checkpoint phase=%s program=%dB trace=%dB memo=%dB, want a program-only merge checkpoint",
			cp.Phase, len(cp.ProgramBytes), len(cp.TraceBytes), len(cp.MemoBytes))
	}

	dir := t.TempDir()
	ckpts, err := durable.NewCheckpointStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := ckpts.Save("j-000003", blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	seedJournal(t, dir,
		durable.Record{Type: durable.TypeEnqueued, Job: "j-000003", Request: mustJSON(t, req)},
		durable.Record{Type: durable.TypeStarted, Job: "j-000003", Attempt: 1},
		durable.Record{Type: durable.TypeCheckpoint, Job: "j-000003", Phase: core.PhaseMerge, File: name},
	)
	logs := &syncBuffer{}
	s, ts := newStateServer(t, dir, Config{Workers: 1, Logger: obs.EventLogger(logs)})
	if v := waitJob(t, ts.URL, "j-000003"); v.Status != StatusDone {
		t.Fatalf("resumed job settled %s (%s)", v.Status, v.Error)
	}
	var art cache.Artifact
	if code := getJSON(t, ts.URL+"/v1/jobs/j-000003/artifact", &art); code != http.StatusOK {
		t.Fatalf("resumed artifact: %d", code)
	}
	ctrlArt.Key, art.Key = "", ""
	if string(mustJSON(t, art)) != string(mustJSON(t, *ctrlArt)) {
		t.Error("resumed trace_base64 artifact differs from the uninterrupted control")
	}
	if got := s.mRecovered.Value(); got != 1 {
		t.Errorf("siesta_jobs_recovered_total = %d, want 1", got)
	}
	text := logs.String()
	if !strings.Contains(text, `"phase":"resume"`) || strings.Contains(text, `"phase":"merge"`) {
		t.Errorf("resumed job did not skip the merge:\n%s", text)
	}
}

// A transient failure of the merge checkpoint retries the job to done,
// for a one-shot and a streamed upload alike. The streamed retry must not
// rebuild the already-consumed ingest session.
func TestMergeCheckpointFailureRetries(t *testing.T) {
	tr := recordedTrace(t, 8)
	want, err := core.SynthesizeTrace(tr, traceOptions(core.Options{}, len(tr.Ranks)))
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"trace_base64", "streamed"} {
		t.Run(transport, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newStateServer(t, dir, Config{Workers: 1})
			s.retryBase = 400 * time.Millisecond

			// Break the checkpoint store until the first retry is scheduled.
			ckDir := filepath.Join(dir, "checkpoints")
			if err := os.RemoveAll(ckDir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ckDir, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			var id, artifactURL string
			if transport == "streamed" {
				cr := streamTrace(t, ts.URL, tr, TraceOpenRequest{})
				id, artifactURL = cr.Job.ID, cr.ArtifactURL
			} else {
				req := SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode())}
				resp, body := postJSON(t, ts.URL+"/v1/synthesize", req)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("POST = %d: %s", resp.StatusCode, body)
				}
				var sr SynthesizeResponse
				json.Unmarshal(body, &sr)
				id, artifactURL = sr.Job.ID, sr.ArtifactURL
			}
			deadline := time.Now().Add(30 * time.Second)
			for s.mRetries.Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no retry scheduled after the checkpoint failure")
				}
				time.Sleep(time.Millisecond)
			}
			if err := os.Remove(ckDir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(ckDir, 0o755); err != nil {
				t.Fatal(err)
			}

			v := waitJob(t, ts.URL, id)
			if v.Status != StatusDone {
				t.Fatalf("job settled %s (%s), want done after retry", v.Status, v.Error)
			}
			if v.Attempts < 2 {
				t.Errorf("attempts = %d, want a retry", v.Attempts)
			}
			var art cache.Artifact
			getJSON(t, ts.URL+artifactURL, &art)
			if art.CSource != want.Generated.CSource() {
				t.Error("retried job's C source differs from core.SynthesizeTrace")
			}
		})
	}
}

// A scaled upload serves exactly what core.SynthesizeTrace generates at
// that scale. The decoded trace keeps no call timings, so codegen fits no
// communication samples: the computation targets shrink and communication
// volumes stay as traced.
func TestScaledTraceUploadMatchesCore(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, ts := newTestServer(t, Config{Workers: 1})
	req := SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(tr.Encode()), Scale: 10}
	_, v, art := submitTrace(t, ts.URL, req)
	if art == nil {
		t.Fatalf("scaled job: %s (%s)", v.Status, v.Error)
	}
	in, _, err := resolve(&req, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SynthesizeTrace(in.tr, in.opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Generated.Scale != 10 {
		t.Fatalf("reference generated at scale %v, want 10", want.Generated.Scale)
	}
	if art.CSource != want.Generated.CSource() {
		t.Error("served scale-10 C source differs from core.SynthesizeTrace at Scale 10")
	}
}
