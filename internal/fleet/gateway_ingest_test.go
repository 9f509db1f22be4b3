package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/server"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// streamedUpload drives one full chunked upload through the gateway and
// returns the commit response and the worker that held the session.
func streamedUpload(t *testing.T, base string, streams [][]byte, digest string) (*http.Response, server.TraceCommitResponse, string) {
	t.Helper()
	resp, raw := postBody(t, base+"/v1/traces", server.TraceOpenRequest{
		NumRanks: len(streams), ContentSHA256: digest, SpillHighWater: 1,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d\n%s", resp.StatusCode, raw)
	}
	owner := resp.Header.Get("X-Siesta-Worker")
	var or server.TraceOpenResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(or.ID, "gt-") {
		t.Fatalf("session id %q not in the gateway id space", or.ID)
	}
	if digest != "" && or.CacheKey == "" {
		t.Fatal("declared digest but open returned no cache key")
	}
	for r, stream := range streams {
		for off := 0; off < len(stream); off += 128 {
			end := off + 128
			if end > len(stream) {
				end = len(stream)
			}
			req, _ := http.NewRequest(http.MethodPut,
				fmt.Sprintf("%s/v1/traces/%s/ranks/%d", base, or.ID, r),
				bytes.NewReader(stream[off:end]))
			presp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(presp.Body)
			presp.Body.Close()
			if presp.StatusCode != http.StatusOK {
				t.Fatalf("PUT rank %d: %d\n%s", r, presp.StatusCode, body)
			}
		}
	}
	var sv server.TraceStatusView
	if code := getInto(t, base+"/v1/traces/"+or.ID, &sv); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if sv.ID != or.ID {
		t.Fatalf("status id %q not rewritten to gateway space %q", sv.ID, or.ID)
	}
	creq, _ := http.NewRequest(http.MethodPost, base+"/v1/traces/"+or.ID+"/commit", nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	craw, _ := io.ReadAll(cresp.Body)
	if got := cresp.Header.Get("X-Siesta-Worker"); got != owner {
		t.Fatalf("commit answered by %q, session pinned to %q", got, owner)
	}
	var cr server.TraceCommitResponse
	if cresp.StatusCode < 300 {
		if err := json.Unmarshal(craw, &cr); err != nil {
			t.Fatalf("decode commit: %v\n%s", err, craw)
		}
		if digest != "" && cr.CacheKey != or.CacheKey {
			t.Fatalf("commit key %q differs from open key %q", cr.CacheKey, or.CacheKey)
		}
	}
	return cresp, cr, owner
}

func TestGatewayStreamedIngest(t *testing.T) {
	f := startFleet(t, 2)

	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 4, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, len(res.Trace.Ranks))
	content := sha256.New()
	for r, rt := range res.Trace.Ranks {
		streams[r] = trace.ChunkEncodeRank(rt)
		sum := sha256.Sum256(streams[r])
		content.Write(sum[:])
	}
	digest := hex.EncodeToString(content.Sum(nil))

	cresp, cr, owner := streamedUpload(t, f.gwTS.URL, streams, digest)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("commit: %d", cresp.StatusCode)
	}
	if !strings.HasPrefix(cr.Job.ID, "g-") {
		t.Fatalf("committed job id %q not in the gateway id space", cr.Job.ID)
	}
	if cr.Spill.Spilled == 0 {
		t.Error("spill stats lost through the gateway")
	}
	v := waitDone(t, f.gwTS.URL, cr.Job.ID, 60*time.Second)
	if v.Status != server.StatusDone {
		t.Fatalf("streamed job settled %s: %s", v.Status, v.Error)
	}
	var art cache.Artifact
	if code := getInto(t, f.gwTS.URL+cr.ArtifactURL, &art); code != http.StatusOK {
		t.Fatalf("artifact fetch: %d", code)
	}
	if !strings.Contains(art.CSource, "MPI_Init") || string(art.Key) != cr.CacheKey {
		t.Fatalf("artifact: %d bytes of C, key %q (want %q)", len(art.CSource), art.Key, cr.CacheKey)
	}

	// Same content again: the declared key routes the session to the same
	// worker, whose cache answers the commit without a new job.
	cresp2, cr2, owner2 := streamedUpload(t, f.gwTS.URL, streams, digest)
	if cresp2.StatusCode != http.StatusOK || !cr2.Cached {
		t.Fatalf("repeat upload: %d cached=%t, want 200 cached", cresp2.StatusCode, cr2.Cached)
	}
	if owner2 != owner {
		t.Fatalf("repeat session routed to %q, first went to %q", owner2, owner)
	}
	if cr2.CacheKey != cr.CacheKey {
		t.Fatalf("same content keyed %q then %q", cr.CacheKey, cr2.CacheKey)
	}
}

func TestGatewayStreamedSessionAbortAndLoss(t *testing.T) {
	f := startFleet(t, 2)

	// Abort: open through the gateway, delete, and the id is gone.
	resp, raw := postBody(t, f.gwTS.URL+"/v1/traces", server.TraceOpenRequest{NumRanks: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d\n%s", resp.StatusCode, raw)
	}
	var or server.TraceOpenResponse
	json.Unmarshal(raw, &or)
	dreq, _ := http.NewRequest(http.MethodDelete, f.gwTS.URL+"/v1/traces/"+or.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("abort: %d", dresp.StatusCode)
	}
	if code := getInto(t, f.gwTS.URL+"/v1/traces/"+or.ID, nil); code != http.StatusNotFound {
		t.Fatalf("status after abort: %d, want 404", code)
	}

	// Loss: a session pinned to a killed worker answers 502 and is
	// dropped — streamed state cannot fail over.
	resp, raw = postBody(t, f.gwTS.URL+"/v1/traces", server.TraceOpenRequest{NumRanks: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d\n%s", resp.StatusCode, raw)
	}
	json.Unmarshal(raw, &or)
	f.worker(resp.Header.Get("X-Siesta-Worker")).kill()
	preq, _ := http.NewRequest(http.MethodPut, f.gwTS.URL+"/v1/traces/"+or.ID+"/ranks/0", bytes.NewReader([]byte("x")))
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadGateway {
		t.Fatalf("append to dead worker: %d, want 502", presp.StatusCode)
	}
	if code := getInto(t, f.gwTS.URL+"/v1/traces/"+or.ID, nil); code != http.StatusNotFound {
		t.Fatalf("lost session still listed: %d, want 404", code)
	}
	if !strings.Contains(f.gwLog.String(), "ingest_session_lost") {
		t.Error("session loss not logged")
	}
}
