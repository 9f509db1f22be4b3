package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// chunkStreams chunk-encodes every rank of a trace, as `siesta upload` does.
func chunkStreams(t *testing.T, tr *trace.Trace) [][]byte {
	t.Helper()
	streams := make([][]byte, len(tr.Ranks))
	for r, rt := range tr.Ranks {
		streams[r] = trace.ChunkEncodeRank(rt)
	}
	return streams
}

// contentDigest is the client-side content_sha256 derivation: sha256 over
// the per-rank stream digests in rank order.
func contentDigest(streams [][]byte) string {
	h := sha256.New()
	for _, s := range streams {
		sum := sha256.Sum256(s)
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func doJSON(t *testing.T, method, url string, body []byte, v any) (int, []byte) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(out, v); err != nil {
			t.Fatalf("decode %s %s: %v\n%s", method, url, err, out)
		}
	}
	return resp.StatusCode, out
}

// putChunks uploads every rank stream in chunkSize pieces, round-robin
// interleaved across ranks — the adversarial arrival order the equivalence
// contract must absorb.
func putChunks(t *testing.T, base, id string, streams [][]byte, chunkSize int) {
	t.Helper()
	offs := make([]int, len(streams))
	for {
		progress := false
		for r, stream := range streams {
			if offs[r] >= len(stream) {
				continue
			}
			end := offs[r] + chunkSize
			if end > len(stream) {
				end = len(stream)
			}
			var rv RankStreamView
			code, body := doJSON(t, http.MethodPut,
				fmt.Sprintf("%s/v1/traces/%s/ranks/%d", base, id, r),
				stream[offs[r]:end], &rv)
			if code != http.StatusOK {
				t.Fatalf("PUT rank %d: %d: %s", r, code, body)
			}
			offs[r] = end
			if wantEnd := offs[r] == len(stream); rv.Ended != wantEnd {
				t.Fatalf("rank %d ended=%t at %d/%d bytes", r, rv.Ended, offs[r], len(stream))
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

// recordedTrace synthesizes an app once out-of-band and returns its trace —
// the shared input for one-shot and streamed uploads.
func recordedTrace(t *testing.T, ranks int) *trace.Trace {
	t.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// The server-level differential test: a trace streamed in 64-byte chunks
// with spilling forced must produce an artifact byte-identical (modulo the
// cache key, which encodes the input transport) to the one-shot
// trace_base64 path — unscaled and at scale 10.
func TestStreamingIngestMatchesOneShotUpload(t *testing.T) {
	tr := recordedTrace(t, 8)
	for _, scale := range []float64{0, 10} {
		t.Run(fmt.Sprintf("scale%g", scale), func(t *testing.T) {
			streamingMatchesOneShot(t, tr, scale)
		})
	}
}

func streamingMatchesOneShot(t *testing.T, tr *trace.Trace, scale float64) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// One-shot control.
	encoded := base64.StdEncoding.EncodeToString(tr.Encode())
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{TraceBase64: encoded, Scale: scale})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("one-shot POST = %d: %s", resp.StatusCode, body)
	}
	var ctrl SynthesizeResponse
	json.Unmarshal(body, &ctrl)
	if v := waitJob(t, ts.URL, ctrl.Job.ID); v.Status != StatusDone {
		t.Fatalf("one-shot job: %s (%s)", v.Status, v.Error)
	}
	var ctrlArt cache.Artifact
	getJSON(t, ts.URL+ctrl.ArtifactURL, &ctrlArt)

	// Streamed: declare the content digest up front so open already
	// returns the final cache key, force every terminal to spill.
	streams := chunkStreams(t, tr)
	digest := contentDigest(streams)
	resp, body = postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{
		NumRanks: len(streams), ContentSHA256: digest, SpillHighWater: 1, Scale: scale,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	if open.CacheKey == "" {
		t.Fatal("open with declared content_sha256 returned no cache key")
	}
	putChunks(t, ts.URL, open.ID, streams, 64)

	var st TraceStatusView
	if code := getJSON(t, ts.URL+"/v1/traces/"+open.ID, &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Spill.Spilled == 0 || st.Spill.Spilled != st.Spill.Records {
		t.Fatalf("high-water 1 did not spill every terminal: %+v", st.Spill)
	}

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/traces/"+open.ID+"/commit", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("commit = %d: %s", code, body)
	}
	var cr TraceCommitResponse
	json.Unmarshal(body, &cr)
	if cr.CacheKey != open.CacheKey {
		t.Errorf("commit key %s != open key %s", cr.CacheKey, open.CacheKey)
	}
	if cr.CacheKey == ctrl.CacheKey {
		t.Error("streamed and one-shot keys collide; the transports must key separately")
	}
	if cr.Spill.Spilled == 0 {
		t.Error("commit response lost the spill stats")
	}
	if v := waitJob(t, ts.URL, cr.Job.ID); v.Status != StatusDone {
		t.Fatalf("streamed job: %s (%s)", v.Status, v.Error)
	}
	var art cache.Artifact
	getJSON(t, ts.URL+cr.ArtifactURL, &art)

	// The equivalence contract, observed end to end: identical artifacts
	// up to the transport-specific cache key.
	ctrlArt.Key, art.Key = "", ""
	if art.CSource != ctrlArt.CSource {
		t.Error("streamed C source differs from one-shot upload")
	}
	if !bytes.Equal(mustJSON(t, art), mustJSON(t, ctrlArt)) {
		t.Errorf("streamed artifact differs from one-shot: %+v vs %+v", art, ctrlArt)
	}

	// Ingest observability: bytes counted, no rank streams left open.
	metrics := metricsText(t, ts)
	if !strings.Contains(metrics, "siesta_ingest_ranks_open 0") {
		t.Errorf("ingest rank gauge did not return to zero:\n%s", metrics)
	}
	var total int
	for _, s := range streams {
		total += len(s)
	}
	if want := fmt.Sprintf("siesta_ingest_bytes_total %d", total); !strings.Contains(metrics, want) {
		t.Errorf("want %q in metrics", want)
	}
}

// A second streamed upload of the same content must short-circuit to the
// artifact cache at commit time.
func TestStreamingIngestCommitCacheHit(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, ts := newTestServer(t, Config{Workers: 1})
	streams := chunkStreams(t, tr)

	run := func() (int, TraceCommitResponse) {
		resp, body := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: len(streams)})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("open = %d: %s", resp.StatusCode, body)
		}
		var open TraceOpenResponse
		json.Unmarshal(body, &open)
		putChunks(t, ts.URL, open.ID, streams, 4096)
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/traces/"+open.ID+"/commit", nil, nil)
		var cr TraceCommitResponse
		json.Unmarshal(body, &cr)
		return code, cr
	}

	code, first := run()
	if code != http.StatusAccepted {
		t.Fatalf("first commit = %d", code)
	}
	if v := waitJob(t, ts.URL, first.Job.ID); v.Status != StatusDone {
		t.Fatalf("first job: %s (%s)", v.Status, v.Error)
	}
	code, second := run()
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second commit = %d cached=%t, want 200 cached", code, second.Cached)
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("same content keyed differently: %s vs %s", second.CacheKey, first.CacheKey)
	}
}

func TestStreamingIngestValidationAndAbort(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, ts := newTestServer(t, Config{Workers: 1, MaxIngestSessions: 2})
	streams := chunkStreams(t, tr)

	// Open-time rejections.
	for _, tc := range []struct {
		req  TraceOpenRequest
		want int
	}{
		{TraceOpenRequest{NumRanks: 0}, http.StatusBadRequest},
		{TraceOpenRequest{NumRanks: 8, Platform: "no-such"}, http.StatusBadRequest},
		{TraceOpenRequest{NumRanks: 8, ContentSHA256: "zz"}, http.StatusBadRequest},
	} {
		if resp, body := postJSON(t, ts.URL+"/v1/traces", tc.req); resp.StatusCode != tc.want {
			t.Errorf("open %+v = %d, want %d: %s", tc.req, resp.StatusCode, tc.want, body)
		}
	}

	// Unknown session and bad rank paths.
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/traces/t-999999/ranks/0", []byte("x"), nil); code != http.StatusNotFound {
		t.Errorf("append to unknown session = %d, want 404", code)
	}
	resp, body := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: len(streams)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/traces/"+open.ID+"/ranks/99", []byte("x"), nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range rank = %d, want 400", code)
	}

	// Corrupt bytes poison the rank with a 400, and commit before every
	// stream has ended is a conflict.
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/traces/"+open.ID+"/ranks/0", []byte("not a chunk stream"), nil); code != http.StatusBadRequest {
		t.Errorf("corrupt chunk = %d, want 400", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/traces/"+open.ID+"/commit", nil, nil); code != http.StatusConflict {
		t.Errorf("commit with incomplete streams = %d, want 409", code)
	}

	// Abort tears the session down; every later touch is a 404.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/traces/"+open.ID, nil, nil); code != http.StatusOK {
		t.Errorf("abort = %d, want 200", code)
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+open.ID, nil); code != http.StatusNotFound {
		t.Errorf("status after abort = %d, want 404", code)
	}

	// A declared digest that does not match the streamed bytes fails the
	// commit — the guard that keeps a mis-declared key from poisoning the
	// cache ring.
	resp, body = postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{
		NumRanks: len(streams), ContentSHA256: strings.Repeat("ab", 32),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &open)
	putChunks(t, ts.URL, open.ID, streams, 4096)
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/traces/"+open.ID+"/commit", nil, nil); code != http.StatusBadRequest {
		t.Errorf("commit with wrong declared digest = %d, want 400: %s", code, body)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/traces/"+open.ID, nil, nil)

	// The session cap: the third concurrent open is rejected 429.
	var opened []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: 2})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("open %d = %d: %s", i, resp.StatusCode, body)
		}
		var o TraceOpenResponse
		json.Unmarshal(body, &o)
		opened = append(opened, o.ID)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: 2}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("open past session cap = %d, want 429", resp.StatusCode)
	}
	for _, id := range opened {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/traces/"+id, nil, nil)
	}
}
