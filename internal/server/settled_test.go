package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"siesta/internal/trace"
)

// A settled job's record must not pin its input: once a streamed job is
// done, the record the server still retains no longer reaches the
// committed session's merge.Ingest, so the collector can take it (with
// its per-rank decoders, leaf tables and grammars) long before MaxJobs
// prunes the record. A finalizer on an object only the Ingest references
// observes the release.
func TestSettledStreamedJobReleasesIngest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	streams := chunkStreams(t, recordedTrace(t, 4))
	resp, body := postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: len(streams)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	released := make(chan struct{})
	s.ingestMu.Lock()
	runtime.SetFinalizer(ingestLeaf(s.ingests[open.ID].in), func(*trace.ChunkDec) { close(released) })
	s.ingestMu.Unlock()

	putChunks(t, ts.URL, open.ID, streams, 256)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/traces/"+open.ID+"/commit", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("commit = %d: %s", code, body)
	}
	var cr TraceCommitResponse
	json.Unmarshal(body, &cr)
	if v := waitJob(t, ts.URL, cr.Job.ID); v.Status != StatusDone {
		t.Fatalf("streamed job: %s (%s)", v.Status, v.Error)
	}
	if _, ok := s.lookupJob(cr.Job.ID); !ok {
		t.Fatal("the settled job's record is gone; the test needs it retained")
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the settled job's record still reaches its merge.Ingest")
}
