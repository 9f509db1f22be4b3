package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"siesta/internal/server/cache"
)

func decodeJSON(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
}

func ctxShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestReadyzAndBuildInfo covers the liveness/readiness split and the
// build-metadata gauge.
func TestReadyzAndBuildInfo(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var rz struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rz); code != http.StatusOK || rz.Status != "ready" {
		t.Fatalf("readyz: %d %+v", code, rz)
	}
	if !s.Ready() {
		t.Fatal("Ready() false on a running server")
	}
	if text := metricsText(t, ts); !strings.Contains(text, "siesta_build_info{") {
		t.Error("metrics exposition missing siesta_build_info")
	}
}

func TestReadyzFlipsWhileDraining(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	jb := blockerJob(release)
	if _, err := s.admit(jb); err != nil {
		t.Fatal("admit blocker")
	}
	waitStatus(t, jb, StatusRunning)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Shutdown blocks on the running blocker; readiness must already be
		// gone so the fleet stops routing here during the drain.
		ctxShutdown(t, s)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("Ready() stayed true after drain started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	// Liveness is unaffected by the drain.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
	close(release)
	<-done
}

// TestWorkerIdentityStamp covers the fleet-mode response header and job
// attribution.
func TestWorkerIdentityStamp(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, WorkerID: "w-test"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Siesta-Worker"); got != "w-test" {
		t.Fatalf("X-Siesta-Worker = %q, want w-test", got)
	}

	resp2, raw := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"app": "CG", "ranks": 4, "iters": 2})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp2.StatusCode, raw)
	}
	var sr SynthesizeResponse
	decodeJSON(t, raw, &sr)
	if sr.Job.Worker != "w-test" {
		t.Fatalf("job view worker = %q, want w-test", sr.Job.Worker)
	}
	if sr.CacheKey == "" || sr.Job.CacheKey != sr.CacheKey {
		t.Fatalf("cache_key surfacing: response %q, job view %q", sr.CacheKey, sr.Job.CacheKey)
	}
}

// TestRequestKeyMatchesServedKey pins the property fleet routing depends
// on: the gateway-side RequestKey equals the key the serving node derives.
func TestRequestKeyMatchesServedKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := &SynthesizeRequest{App: "CG", Ranks: 4, Iters: 2, Scale: 10, Seed: 3}
	key, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	var sr SynthesizeResponse
	decodeJSON(t, raw, &sr)
	if sr.CacheKey != string(key) {
		t.Fatalf("RequestKey %q != served cache_key %q", key, sr.CacheKey)
	}

	// Options the key must ignore: parallelism (output-invariant) and the
	// resume payload (an execution hint, not an identity).
	req2 := *req
	req2.Parallelism = 7
	req2.ResumeBase64 = "aGVsbG8="
	key2, err := RequestKey(&req2)
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Fatalf("parallelism/resume leaked into the cache key: %q vs %q", key2, key)
	}

	if _, err := RequestKey(&SynthesizeRequest{}); err == nil {
		t.Error("RequestKey accepted a request with no input")
	}
	if _, err := RequestKey(&SynthesizeRequest{App: "NOPE", Ranks: 4}); err == nil {
		t.Error("RequestKey accepted an unknown app")
	}
}

// TestPeerFetchServesMiss covers the PeerFetch hook: a local miss answered
// by a peer becomes a cache hit, is counted, and is adopted locally.
func TestPeerFetchServesMiss(t *testing.T) {
	req := &SynthesizeRequest{App: "CG", Ranks: 4, Iters: 2}
	key, err := RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	peerArt := &cache.Artifact{Key: key, App: "CG", Ranks: 4, CSource: "/* from peer */"}
	var calls int
	var mu sync.Mutex
	s, ts := newTestServer(t, Config{
		Workers: 1,
		PeerFetch: func(k cache.Key) (*cache.Artifact, bool) {
			mu.Lock()
			calls++
			mu.Unlock()
			if k == key {
				return peerArt, true
			}
			return nil, false
		},
	})

	resp, raw := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-served request: %d\n%s", resp.StatusCode, raw)
	}
	var sr SynthesizeResponse
	decodeJSON(t, raw, &sr)
	if !sr.Cached {
		t.Fatal("peer-served request not reported as cached")
	}
	if got := s.reg.Counter("siesta_peer_hits_total", "").Value(); got != 1 {
		t.Fatalf("siesta_peer_hits_total = %d, want 1", got)
	}
	if _, ok := s.Artifact(key); !ok {
		t.Fatal("peer artifact not adopted into the local cache")
	}

	// Second identical request: now a plain local hit, no peer call.
	mu.Lock()
	before := calls
	mu.Unlock()
	resp2, _ := postJSON(t, ts.URL+"/v1/synthesize", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("local-hit request: %d", resp2.StatusCode)
	}
	mu.Lock()
	after := calls
	mu.Unlock()
	if after != before {
		t.Fatalf("local hit still consulted the peer (%d -> %d calls)", before, after)
	}
}

// TestCheckpointSinkWithoutStateDir covers sinkCheckpointer: no state dir,
// but phase-boundary checkpoints still reach the fleet sink keyed by the
// artifact cache key.
func TestCheckpointSinkWithoutStateDir(t *testing.T) {
	var mu sync.Mutex
	sunk := map[cache.Key]int{}
	s, ts := newTestServer(t, Config{
		Workers: 1,
		CheckpointSink: func(k cache.Key, blob []byte) {
			if len(blob) == 0 {
				t.Error("sink received an empty checkpoint")
			}
			mu.Lock()
			sunk[k]++
			mu.Unlock()
		},
	})

	resp, raw := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"app": "CG", "ranks": 4, "iters": 2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	var sr SynthesizeResponse
	decodeJSON(t, raw, &sr)
	v := waitJob(t, ts.URL, sr.Job.ID)
	if v.Status != StatusDone {
		t.Fatalf("job settled %s: %s", v.Status, v.Error)
	}
	mu.Lock()
	n := sunk[cache.Key(sr.CacheKey)]
	mu.Unlock()
	if n == 0 {
		t.Fatalf("no checkpoints reached the sink under key %q (sunk: %v)", sr.CacheKey, sunk)
	}
	if got := s.mCkptW.Value(); got == 0 {
		t.Error("siesta_checkpoints_written_total stayed 0 with a sink configured")
	}
}

// TestResumeBase64Validation covers the failover handoff field's error
// paths: undecodable input is the client's fault, a foreign checkpoint
// degrades to a cold run.
func TestResumeBase64Validation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, _ := postJSON(t, ts.URL+"/v1/synthesize",
		map[string]any{"app": "CG", "ranks": 4, "iters": 2, "resume_base64": "!!!not-base64!!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage base64: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/synthesize",
		map[string]any{"app": "CG", "ranks": 4, "iters": 2, "resume_base64": "aGVsbG8="})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undecodable checkpoint: %d, want 400", resp.StatusCode)
	}
}
