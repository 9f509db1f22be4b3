package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siesta/internal/obs"
	"siesta/internal/server"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// syncBuffer is a goroutine-safe log sink for asserting on event streams.
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

// testWorker is one in-process fleet worker behind an httptest frontend.
type testWorker struct {
	w      *Worker
	ts     *httptest.Server
	id     string
	log    *syncBuffer
	cancel context.CancelFunc
}

// kill simulates a crash: the HTTP frontend refuses connections and the
// membership loop stops heartbeating — but nothing is drained or cleaned
// up, exactly like a kill -9.
func (tw *testWorker) kill() {
	tw.ts.Close()
	tw.cancel()
}

type testFleet struct {
	gw     *Gateway
	gwTS   *httptest.Server
	gwLog  *syncBuffer
	ws     []*testWorker
	cancel context.CancelFunc
}

// startFleet brings up an embedded-registry gateway plus n workers and
// waits until every worker is routable. Short TTL and refresh intervals
// keep the failover path fast enough for tests.
func startFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	gwLog := &syncBuffer{}
	gw := NewGateway(GatewayConfig{
		TTL:          600 * time.Millisecond,
		RouteRefresh: 50 * time.Millisecond,
		Logger:       obs.EventLogger(gwLog),
	})
	gwTS := httptest.NewServer(gw.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	go gw.Run(ctx)
	f := &testFleet{gw: gw, gwTS: gwTS, gwLog: gwLog, cancel: cancel}
	t.Cleanup(func() {
		cancel()
		gwTS.Close()
		for _, tw := range f.ws {
			tw.cancel()
			tw.ts.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			tw.w.Server().Shutdown(sctx)
			scancel()
		}
	})

	for i := 0; i < n; i++ {
		// The worker needs its advertise URL before it exists, and the
		// httptest server needs a handler: break the cycle with a late-bound
		// handler behind an atomic.
		var h atomic.Value
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hh, ok := h.Load().(http.Handler); ok {
				hh.ServeHTTP(w, r)
				return
			}
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}))
		log := &syncBuffer{}
		id := fmt.Sprintf("w%d", i+1)
		w, err := NewWorker(WorkerConfig{
			ID:           id,
			AdvertiseURL: ts.URL,
			RegistryURL:  gwTS.URL,
			Heartbeat:    100 * time.Millisecond,
			Server:       server.Config{Workers: 2, Logger: obs.EventLogger(log)},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Store(w.Handler())
		wctx, wcancel := context.WithCancel(ctx)
		go w.Run(wctx)
		f.ws = append(f.ws, &testWorker{w: w, ts: ts, id: id, log: log, cancel: wcancel})
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		var hz struct {
			Workers int `json:"workers"`
		}
		if getInto(t, gwTS.URL+"/healthz", &hz) == http.StatusOK && hz.Workers == n {
			return f
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never became ready: %d of %d workers routable", hz.Workers, n)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// survivorHoldsCheckpoint reports whether any worker other than owner can
// serve the replicated checkpoint for key from its peer endpoint.
func survivorHoldsCheckpoint(f *testFleet, owner, key string) bool {
	for _, tw := range f.ws {
		if tw.id == owner {
			continue
		}
		resp, err := http.Get(tw.ts.URL + "/peer/v1/checkpoint/" + key)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}

func (f *testFleet) worker(id string) *testWorker {
	for _, tw := range f.ws {
		if tw.id == id {
			return tw
		}
	}
	return nil
}

func getInto(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0
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

func postBody(t *testing.T, url string, body any) (*http.Response, []byte) {
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

// waitDone polls a job through the gateway until it settles.
func waitDone(t *testing.T, base, id string, timeout time.Duration) server.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v server.JobView
		if getInto(t, base+"/v1/jobs/"+id, &v) == http.StatusOK {
			switch v.Status {
			case server.StatusDone, server.StatusFailed, server.StatusCanceled:
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not settle within %v (last view %+v)", id, timeout, v)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestFleetRoutingAndCacheHit(t *testing.T) {
	f := startFleet(t, 2)
	req := map[string]any{"app": "CG", "ranks": 4, "iters": 2}

	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	owner := resp.Header.Get("X-Siesta-Worker")
	if owner == "" {
		t.Fatal("202 response carries no X-Siesta-Worker header")
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
	if sr.CacheKey == "" || !strings.HasPrefix(sr.Job.ID, "g-") {
		t.Fatalf("gateway response not rewritten: id %q, cache_key %q", sr.Job.ID, sr.CacheKey)
	}
	if sr.ArtifactURL != "/v1/jobs/"+sr.Job.ID+"/artifact" {
		t.Fatalf("artifact_url %q not in the gateway id space", sr.ArtifactURL)
	}

	v := waitDone(t, f.gwTS.URL, sr.Job.ID, 60*time.Second)
	if v.Status != server.StatusDone {
		t.Fatalf("job settled %s: %s", v.Status, v.Error)
	}
	if v.Worker != owner {
		t.Fatalf("job view worker %q, routed to %q", v.Worker, owner)
	}
	if v.CacheKey != sr.CacheKey {
		t.Fatalf("job view cache_key %q differs from synthesize response %q", v.CacheKey, sr.CacheKey)
	}
	var art cache.Artifact
	if code := getInto(t, f.gwTS.URL+sr.ArtifactURL, &art); code != http.StatusOK {
		t.Fatalf("artifact fetch: %d", code)
	}
	if art.CSource == "" || string(art.Key) != sr.CacheKey {
		t.Fatalf("artifact: %d bytes of C, key %q (want %q)", len(art.CSource), art.Key, sr.CacheKey)
	}

	// The same request must route to the same worker and hit its cache.
	resp2, raw2 := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat synthesize: %d\n%s", resp2.StatusCode, raw2)
	}
	if got := resp2.Header.Get("X-Siesta-Worker"); got != owner {
		t.Fatalf("repeat request routed to %q, first went to %q", got, owner)
	}
	var sr2 server.SynthesizeResponse
	if err := json.Unmarshal(raw2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached || sr2.CacheKey != sr.CacheKey {
		t.Fatalf("repeat request: cached=%v key=%q, want cached hit on %q", sr2.Cached, sr2.CacheKey, sr.CacheKey)
	}
}

func TestFleetPeerCacheHit(t *testing.T) {
	f := startFleet(t, 2)
	req := map[string]any{"app": "CG", "ranks": 4, "iters": 3}

	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	owner := resp.Header.Get("X-Siesta-Worker")
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f.gwTS.URL, sr.Job.ID, 60*time.Second); v.Status != server.StatusDone {
		t.Fatalf("job settled %s: %s", v.Status, v.Error)
	}

	// Ask the NON-owner directly: its local cache misses, so it must fetch
	// the artifact from the owner over the peer API and answer a hit.
	var nonOwner *testWorker
	for _, tw := range f.ws {
		if tw.id != owner {
			nonOwner = tw
		}
	}
	if nonOwner == nil {
		t.Fatalf("no non-owner worker found (owner %q)", owner)
	}
	resp2, raw2 := postBody(t, nonOwner.ts.URL+"/v1/synthesize", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("non-owner synthesize: %d\n%s", resp2.StatusCode, raw2)
	}
	var sr2 server.SynthesizeResponse
	if err := json.Unmarshal(raw2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached || sr2.CacheKey != sr.CacheKey {
		t.Fatalf("non-owner answered cached=%v key=%q, want a peer-served hit on %q", sr2.Cached, sr2.CacheKey, sr.CacheKey)
	}
	hits := nonOwner.w.Server().Metrics().Counter("siesta_peer_hits_total", "").Value()
	if hits != 1 {
		t.Fatalf("non-owner siesta_peer_hits_total = %d, want 1", hits)
	}
	// The adopted artifact now also answers locally (no second peer fetch).
	if _, ok := nonOwner.w.Server().Artifact(cache.Key(sr.CacheKey)); !ok {
		t.Fatal("peer-fetched artifact was not adopted into the local cache")
	}
}

func TestFleetFailoverResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover scenario")
	}
	f := startFleet(t, 3)
	// Long enough to survive until the first phase-boundary checkpoint and
	// the kill, short enough to finish comfortably under -race.
	req := map[string]any{"app": "CG", "ranks": 4, "iters": 1200}

	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	owner := f.worker(resp.Header.Get("X-Siesta-Worker"))
	if owner == nil {
		t.Fatalf("unknown owner %q", resp.Header.Get("X-Siesta-Worker"))
	}

	// Wait for the first phase-boundary checkpoint, then kill the owner
	// mid-job: connections refused, heartbeats stopped, nothing drained.
	ckptDeadline := time.Now().Add(60 * time.Second)
	for owner.w.Server().Metrics().Counter("siesta_checkpoints_written_total", "").Value() == 0 {
		if time.Now().After(ckptDeadline) {
			t.Fatal("owner never wrote a checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Replication to the ring successor is async; killing the owner before
	// the replica lands would make a cold redispatch legitimate. Wait for a
	// survivor to hold the checkpoint so the resume assertion below is fair.
	replDeadline := time.Now().Add(30 * time.Second)
	for !survivorHoldsCheckpoint(f, owner.id, sr.CacheKey) {
		if time.Now().After(replDeadline) {
			t.Fatalf("checkpoint %s never replicated off %s", sr.CacheKey, owner.id)
		}
		time.Sleep(20 * time.Millisecond)
	}
	owner.kill()

	v := waitDone(t, f.gwTS.URL, sr.Job.ID, 120*time.Second)
	if v.Status != server.StatusDone {
		t.Fatalf("failed-over job settled %s: %s", v.Status, v.Error)
	}
	if v.Worker == owner.id || v.Worker == "" {
		t.Fatalf("job finished on %q, want a survivor (owner %q was killed)", v.Worker, owner.id)
	}
	survivor := f.worker(v.Worker)
	if survivor == nil {
		t.Fatalf("job finished on unknown worker %q", v.Worker)
	}
	if !strings.Contains(f.gwLog.String(), `"event":"job_failover"`) {
		t.Fatal("gateway log records no job_failover event")
	}
	// The survivor must have RESUMED from the replicated checkpoint, not
	// restarted cold: the core pipeline emits a "resume" phase span, which
	// the server logs as a phase event.
	if !strings.Contains(survivor.log.String(), `"phase":"resume"`) {
		t.Fatalf("survivor log has no resume phase — job restarted cold:\n%s", survivor.log.String())
	}

	var art cache.Artifact
	if code := getInto(t, f.gwTS.URL+"/v1/jobs/"+sr.Job.ID+"/artifact", &art); code != http.StatusOK {
		t.Fatalf("failover artifact fetch: %d", code)
	}

	// Byte-identical to an isolated single-node control run: failover must
	// not change the synthesized output.
	ctrl, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctrl.Shutdown(ctx)
	}()
	cts := httptest.NewServer(ctrl.Handler())
	defer cts.Close()
	cresp, craw := postBody(t, cts.URL+"/v1/synthesize", req)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("control synthesize: %d\n%s", cresp.StatusCode, craw)
	}
	var csr server.SynthesizeResponse
	if err := json.Unmarshal(craw, &csr); err != nil {
		t.Fatal(err)
	}
	cv := waitDone(t, cts.URL, csr.Job.ID, 120*time.Second)
	if cv.Status != server.StatusDone {
		t.Fatalf("control job settled %s: %s", cv.Status, cv.Error)
	}
	var ctrlArt cache.Artifact
	if code := getInto(t, cts.URL+"/v1/jobs/"+csr.Job.ID+"/artifact", &ctrlArt); code != http.StatusOK {
		t.Fatalf("control artifact fetch: %d", code)
	}
	aj, _ := json.Marshal(art)
	cj, _ := json.Marshal(ctrlArt)
	if sha256.Sum256(aj) != sha256.Sum256(cj) {
		t.Fatalf("failed-over artifact differs from single-node control:\nfailover: %.200s\ncontrol:  %.200s", aj, cj)
	}
}

func TestWorkerPeerEndpoints(t *testing.T) {
	f := startFleet(t, 1)
	tw := f.ws[0]
	key := cache.KeyFrom([]byte("peer-endpoint-test"))

	// Unknown artifact and checkpoint: 404. Malformed key: 400.
	for path, want := range map[string]int{
		"/peer/v1/artifact/" + string(key):   http.StatusNotFound,
		"/peer/v1/checkpoint/" + string(key): http.StatusNotFound,
		"/peer/v1/artifact/not-a-key":        http.StatusBadRequest,
	} {
		resp, err := http.Get(tw.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if resp.Header.Get("X-Siesta-Worker") != tw.id {
			t.Errorf("GET %s: missing X-Siesta-Worker header", path)
		}
	}

	// Round-trip a checkpoint blob through the replication endpoint.
	blob := []byte("opaque checkpoint bytes")
	preq, _ := http.NewRequest(http.MethodPut, tw.ts.URL+"/peer/v1/checkpoint/"+string(key), bytes.NewReader(blob))
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNoContent {
		t.Fatalf("checkpoint PUT: %d", presp.StatusCode)
	}
	gresp, err := http.Get(tw.ts.URL + "/peer/v1/checkpoint/" + string(key))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("checkpoint GET: %d, %q", gresp.StatusCode, got)
	}

	// Malformed key and empty body are the replicator's fault: 400.
	for _, bad := range []struct{ path, body string }{
		{"/peer/v1/checkpoint/not-a-key", "x"},
		{"/peer/v1/checkpoint/" + string(key), ""},
	} {
		breq, _ := http.NewRequest(http.MethodPut, tw.ts.URL+bad.path, strings.NewReader(bad.body))
		bresp, err := http.DefaultClient.Do(breq)
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s (%d bytes) = %d, want 400", bad.path, len(bad.body), bresp.StatusCode)
		}
	}

	// The replica store is a bounded FIFO: overfilling it evicts the oldest
	// entry (the round-tripped blob above) but keeps the newest.
	var last cache.Key
	for i := 0; i < maxReplicatedCkpts; i++ {
		last = cache.KeyFrom([]byte(fmt.Sprintf("filler-%d", i)))
		tw.w.storeCheckpoint(last, []byte("filler"))
	}
	if _, ok := tw.w.loadCheckpoint(key); ok {
		t.Error("FIFO did not evict the oldest checkpoint replica")
	}
	if _, ok := tw.w.loadCheckpoint(last); !ok {
		t.Error("FIFO evicted the newest checkpoint replica")
	}
}

func TestGatewayValidationAndHealth(t *testing.T) {
	f := startFleet(t, 1)

	// Invalid requests are rejected at the gateway, before any routing.
	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: %d\n%s", resp.StatusCode, raw)
	}
	resp, _ = postBody(t, f.gwTS.URL+"/v1/synthesize", map[string]any{"app": "NOPE", "ranks": 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app: %d", resp.StatusCode)
	}

	// The gateway routes an uploaded trace on its header alone. A bad
	// header is its own 400; a trace corrupt past a sound header reaches
	// the worker, whose full decode rejects it, and the gateway relays
	// that 400.
	var hdr trace.Enc
	hdr.Str("SIESTA-TRACE1")
	hdr.Int(2)
	goodHeader := append(hdr.Bytes(), 0xff, 0xff, 0xff, 0xff)
	for _, tc := range []struct {
		name   string
		raw    []byte
		routes bool // the gateway derives a key and forwards
	}{
		{"bad magic", append([]byte("\x0dSIESTA-TRACE0"), goodHeader[14:]...), false},
		{"corrupt past header", goodHeader, true},
	} {
		b64 := base64.StdEncoding.EncodeToString(tc.raw)
		if _, err := server.RequestKey(&server.SynthesizeRequest{TraceBase64: b64}); (err == nil) != tc.routes {
			t.Fatalf("%s: RequestKey error %v", tc.name, err)
		}
		resp, body := postBody(t, f.gwTS.URL+"/v1/synthesize", map[string]any{"trace_base64": b64})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trace_base64") {
			t.Fatalf("%s: %d\n%s", tc.name, resp.StatusCode, body)
		}
	}

	if code := getInto(t, f.gwTS.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz with a live worker: %d", code)
	}
	var hz struct {
		Workers int    `json:"workers"`
		Role    string `json:"role"`
	}
	if getInto(t, f.gwTS.URL+"/healthz", &hz) != http.StatusOK || hz.Workers != 1 || hz.Role != "gateway" {
		t.Fatalf("healthz = %+v", hz)
	}

	// The gateway serves the fleet metrics under its own /metrics.
	mresp, err := http.Get(f.gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"siesta_fleet_workers 1", "siesta_route_epoch", "siesta_gateway_jobs_routed_total"} {
		if !strings.Contains(string(mtext), want) {
			t.Errorf("gateway /metrics missing %q", want)
		}
	}

	// Unknown gateway job ids are a clean 404.
	if code := getInto(t, f.gwTS.URL+"/v1/jobs/g-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}

	// The app catalog proxies through.
	var apps []struct {
		Name string `json:"name"`
	}
	if getInto(t, f.gwTS.URL+"/v1/apps", &apps) != http.StatusOK || len(apps) == 0 {
		t.Fatalf("apps catalog: %+v", apps)
	}
}
