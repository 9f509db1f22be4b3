package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"siesta/internal/server"
	"siesta/internal/server/metrics"
)

// TestGatewayJobSurfaces covers the proxied job lifecycle beyond
// synthesize/poll: the routing-record list, cancellation, the
// trace/analysis sub-resources, the worker attribution every proxied
// answer carries, and the verbatim relay of worker verdicts.
func TestGatewayJobSurfaces(t *testing.T) {
	f := startFleet(t, 2)

	// "trace"/"analyze" bypass the cache-hit shortcut, so this always runs
	// and serves both sub-resources.
	req := map[string]any{"app": "CG", "ranks": 4, "iters": 2, "trace": true, "analyze": true}
	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize: %d\n%s", resp.StatusCode, raw)
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f.gwTS.URL, sr.Job.ID, 60*time.Second)
	if v.Status != server.StatusDone {
		t.Fatalf("job settled %s: %s", v.Status, v.Error)
	}
	// A job polled to done keeps no failover body: the request (a trace,
	// for uploads) is dropped the moment the job settles.
	if j, ok := f.gw.lookup(sr.Job.ID); !ok {
		t.Fatalf("gateway lost job %s", sr.Job.ID)
	} else {
		j.mu.Lock()
		done, held := j.done, len(j.reqJSON)
		j.mu.Unlock()
		if !done || held != 0 {
			t.Fatalf("settled job: done=%v, failover body %d B (want done, 0 B)", done, held)
		}
	}
	// Sub-resource URLs in the view are rewritten to the gateway id space.
	if !strings.Contains(v.TraceURL, sr.Job.ID) || !strings.Contains(v.AnalysisURL, sr.Job.ID) {
		t.Fatalf("sub-resource URLs not rewritten: trace %q analysis %q", v.TraceURL, v.AnalysisURL)
	}
	// Every proxied answer names the worker that gave it.
	holder := jobHolder(t, f, sr.Job.ID)
	for _, path := range []string{"", "/artifact", "/trace", "/analysis"} {
		hresp, _ := call(t, http.MethodGet, f.gwTS.URL+"/v1/jobs/"+sr.Job.ID+path, nil)
		if hresp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, hresp.StatusCode)
		}
		wantWorker(t, hresp, holder, "GET job"+path)
	}

	// The list endpoint reports the gateway's own routing records.
	var listed []struct {
		ID       string `json:"id"`
		CacheKey string `json:"cache_key"`
		Worker   string `json:"worker"`
		Done     bool   `json:"done"`
	}
	if code := getInto(t, f.gwTS.URL+"/v1/jobs", &listed); code != http.StatusOK {
		t.Fatalf("list jobs: %d", code)
	}
	found := false
	for _, lj := range listed {
		if lj.ID == sr.Job.ID {
			found = true
			if lj.CacheKey != sr.CacheKey || lj.Worker == "" || !lj.Done {
				t.Fatalf("routing record %+v, want key %s and done", lj, sr.CacheKey)
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from the list: %+v", sr.Job.ID, listed)
	}

	// Cancel a long job through the gateway; it must settle canceled and
	// never be resurrected by the failover scan.
	resp2, raw2 := postBody(t, f.gwTS.URL+"/v1/synthesize",
		map[string]any{"app": "CG", "ranks": 4, "iters": 1200, "seed": 99})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("long synthesize: %d\n%s", resp2.StatusCode, raw2)
	}
	var sr2 server.SynthesizeResponse
	if err := json.Unmarshal(raw2, &sr2); err != nil {
		t.Fatal(err)
	}
	dresp, draw := call(t, http.MethodDelete, f.gwTS.URL+"/v1/jobs/"+sr2.Job.ID, nil)
	var dv server.JobView
	if err := json.Unmarshal(draw, &dv); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK || dv.ID != sr2.Job.ID {
		t.Fatalf("cancel: %d %+v", dresp.StatusCode, dv)
	}
	holder2 := jobHolder(t, f, sr2.Job.ID)
	wantWorker(t, dresp, holder2, "DELETE job")
	// A worker's 4xx about a job is relayed with its attribution too.
	aresp, _ := call(t, http.MethodGet, f.gwTS.URL+"/v1/jobs/"+sr2.Job.ID+"/analysis", nil)
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("analysis of an unanalyzed job = %d, want 404", aresp.StatusCode)
	}
	wantWorker(t, aresp, holder2, "relayed 404")
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cv server.JobView
		if getInto(t, f.gwTS.URL+"/v1/jobs/"+sr2.Job.ID, &cv) == http.StatusOK && cv.Status == server.StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled job never settled canceled through the gateway")
		}
		time.Sleep(20 * time.Millisecond)
	}

	relaysWorkerVerdicts(t, f)
}

// relaysWorkerVerdicts pins the placement loop's relay: a worker's 4xx on
// either POST route reaches the client byte for byte, attributed to the
// worker, and every session call answers from the worker the session is
// pinned to.
func relaysWorkerVerdicts(t *testing.T, f *testFleet) {
	// Each body passes the gateway's own validation and fails the
	// worker's: a resume blob that is not base64, a session of no ranks.
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/synthesize", server.SynthesizeRequest{App: "CG", Ranks: 4, Iters: 2, ResumeBase64: "%%%"}},
		{"/v1/traces", server.TraceOpenRequest{NumRanks: 0}},
	} {
		gresp, graw := postBody(t, f.gwTS.URL+tc.path, tc.body)
		if gresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s through the gateway = %d, want 400\n%s", tc.path, gresp.StatusCode, graw)
		}
		tw := f.worker(gresp.Header.Get("X-Siesta-Worker"))
		if tw == nil {
			t.Fatalf("POST %s: relayed 400 names no fleet worker (%q)", tc.path, gresp.Header.Get("X-Siesta-Worker"))
		}
		wresp, wraw := postBody(t, tw.ts.URL+tc.path, tc.body)
		if wresp.StatusCode != gresp.StatusCode || !bytes.Equal(graw, wraw) {
			t.Errorf("POST %s: gateway relayed %d %q, worker answers %d %q",
				tc.path, gresp.StatusCode, graw, wresp.StatusCode, wraw)
		}
	}

	// Session calls: status, a rejected append and a premature commit.
	oresp, oraw := postBody(t, f.gwTS.URL+"/v1/traces", server.TraceOpenRequest{NumRanks: 2})
	if oresp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d\n%s", oresp.StatusCode, oraw)
	}
	owner := oresp.Header.Get("X-Siesta-Worker")
	if f.worker(owner) == nil {
		t.Fatalf("open answered by %q, not a fleet worker", owner)
	}
	var or server.TraceOpenResponse
	if err := json.Unmarshal(oraw, &or); err != nil {
		t.Fatal(err)
	}
	base := f.gwTS.URL + "/v1/traces/" + or.ID
	for _, tc := range []struct {
		method, url string
		body        []byte
		want        int
	}{
		{http.MethodGet, base, nil, http.StatusOK},
		{http.MethodPut, base + "/ranks/0", []byte("not a chunk stream"), http.StatusBadRequest},
		{http.MethodPost, base + "/commit", nil, http.StatusConflict},
		{http.MethodDelete, base, nil, http.StatusOK},
	} {
		resp, raw := call(t, tc.method, tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d\n%s", tc.method, tc.url, resp.StatusCode, tc.want, raw)
		}
		wantWorker(t, resp, owner, tc.method+" "+tc.url)
	}
}

// call makes one request and returns the response with its body read.
func call(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// jobHolder is the worker the gateway placed a job on.
func jobHolder(t *testing.T, f *testFleet, gid string) string {
	t.Helper()
	j, ok := f.gw.lookup(gid)
	if !ok {
		t.Fatalf("gateway lost job %s", gid)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker
}

// wantWorker checks a proxied response names the worker that answered.
func wantWorker(t *testing.T, resp *http.Response, want, what string) {
	t.Helper()
	if got := resp.Header.Get("X-Siesta-Worker"); got != want {
		t.Errorf("%s: X-Siesta-Worker %q, want %q", what, got, want)
	}
}

// TestGatewayEvictsDeadWorkerOnDispatch pins proactive eviction: a request
// routed at a dead owner must not fail — the gateway evicts the node and
// retries the next ring candidate within the same request.
func TestGatewayEvictsDeadWorkerOnDispatch(t *testing.T) {
	f := startFleet(t, 2)

	// Find a request owned by w1 by replaying the gateway's own routing
	// math over the registered membership.
	rt := newRoutes(Table{Epoch: 1, Workers: []WorkerInfo{
		{ID: f.ws[0].id, Addr: f.ws[0].ts.URL},
		{ID: f.ws[1].id, Addr: f.ws[1].ts.URL},
	}})
	victim := f.ws[0]
	var req *server.SynthesizeRequest
	for seed := 1; seed < 100; seed++ {
		cand := &server.SynthesizeRequest{App: "CG", Ranks: 4, Iters: 2, Seed: uint64(seed)}
		key, err := server.RequestKey(cand)
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := rt.owner(string(key)); ok && owner.ID == victim.id {
			req = cand
			break
		}
	}
	if req == nil {
		t.Fatal("no seed in [1,100) hashes to the victim — ring balance is broken")
	}

	victim.kill()
	resp, raw := postBody(t, f.gwTS.URL+"/v1/synthesize", req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("request owned by a dead worker: %d\n%s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Siesta-Worker"); got != f.ws[1].id {
		t.Fatalf("served by %q, want the surviving worker %q", got, f.ws[1].id)
	}
	if !strings.Contains(f.gwLog.String(), `"event":"worker_evicted"`) {
		t.Fatal("gateway log records no eviction of the dead owner")
	}
}

// TestGatewayWithExternalRegistry runs the three roles as separate
// components: a standalone registry process boundary (HTTP), a gateway
// pointed at it, and a worker that registers, serves one job, and leaves
// gracefully — after which the gateway reports not-ready.
func TestGatewayWithExternalRegistry(t *testing.T) {
	reg := NewRegistry(2*time.Second, metrics.NewRegistry())
	regTS := httptest.NewServer(reg.Handler())
	defer regTS.Close()

	gw := NewGateway(GatewayConfig{RegistryURL: regTS.URL, RouteRefresh: 50 * time.Millisecond})
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go gw.Run(ctx)

	// No workers yet: routable requests have nowhere to go.
	resp, _ := postBody(t, gwTS.URL+"/v1/synthesize", map[string]any{"app": "CG", "ranks": 4, "iters": 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("synthesize with an empty fleet: %d, want 503", resp.StatusCode)
	}
	if code := getInto(t, gwTS.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with an empty fleet: %d, want 503", code)
	}

	var h atomic.Value
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hh, ok := h.Load().(http.Handler); ok {
			hh.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	defer wts.Close()
	wk, err := NewWorker(WorkerConfig{
		ID: "solo", AdvertiseURL: wts.URL, RegistryURL: regTS.URL,
		Heartbeat: 50 * time.Millisecond,
		Server:    server.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Store(wk.Handler())
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go wk.Run(wctx)

	deadline := time.Now().Add(15 * time.Second)
	for getInto(t, gwTS.URL+"/readyz", nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("gateway never became ready after the worker registered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var hz struct {
		Workers int `json:"workers"`
	}
	if getInto(t, gwTS.URL+"/healthz", &hz) != http.StatusOK || hz.Workers != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp2, raw2 := postBody(t, gwTS.URL+"/v1/synthesize", map[string]any{"app": "CG", "ranks": 4, "iters": 2})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize via external registry: %d\n%s", resp2.StatusCode, raw2)
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(raw2, &sr); err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, gwTS.URL, sr.Job.ID, 60*time.Second); v.Status != server.StatusDone {
		t.Fatalf("job settled %s: %s", v.Status, v.Error)
	}

	// Graceful leave: deregisters immediately (no TTL wait), drains, and
	// the gateway flips to not-ready on its next refresh.
	wcancel()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := wk.Close(sctx); err != nil {
		t.Fatalf("worker close: %v", err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for getInto(t, gwTS.URL+"/readyz", nil) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("gateway stayed ready after the only worker left")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
