package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/obs"
	"siesta/internal/platform"
	"siesta/internal/server/cache"
	"siesta/internal/statics"
)

// The analyze phase folds the check gate's own machine run instead of
// running statics.Analyze, so its bytes must still be statics.Analyze's:
// for a trace recorded on platform B and uploaded with no platform (the
// report names the program's recorded platform), and for the same upload
// resumed from its merge checkpoint, where the gate re-runs on the restored
// program.
func TestAnalysisMatchesStaticsAnalyze(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 3, Platform: platform.B})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := merge.Build(recorded.Trace, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := statics.Analyze(prog, nil, statics.Options{ExactBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Platform != "B" {
		t.Fatalf("reference analysis on platform %q, want the recorded B", rep.Platform)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	req := SynthesizeRequest{TraceBase64: base64.StdEncoding.EncodeToString(recorded.Trace.Encode()), Analyze: true}

	analysisOf := func(t *testing.T, base string, req SynthesizeRequest) []byte {
		t.Helper()
		sr, v, art := submitTrace(t, base, req)
		if art == nil {
			t.Fatalf("analyzed job: %s (%s)", v.Status, v.Error)
		}
		resp, err := http.Get(base + "/v1/jobs/" + sr.Job.ID + "/analysis")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET analysis = %d (%v)", resp.StatusCode, err)
		}
		return buf.Bytes()
	}

	var mu sync.Mutex
	var blobs [][]byte
	_, ts := newTestServer(t, Config{Workers: 1, CheckpointSink: func(_ cache.Key, blob []byte) {
		mu.Lock()
		blobs = append(blobs, blob)
		mu.Unlock()
	}})
	if got := analysisOf(t, ts.URL, req); !bytes.Equal(got, want) {
		t.Errorf("served analysis differs from statics.Analyze:\n%s\nwant\n%s", got, want)
	}

	mu.Lock()
	if len(blobs) != 1 {
		t.Fatalf("trace job wrote %d checkpoints, want 1", len(blobs))
	}
	req.ResumeBase64 = base64.StdEncoding.EncodeToString(blobs[0])
	mu.Unlock()
	logs := &syncBuffer{}
	_, resumeTS := newTestServer(t, Config{Workers: 1, Logger: obs.EventLogger(logs)})
	if got := analysisOf(t, resumeTS.URL, req); !bytes.Equal(got, want) {
		t.Errorf("analysis of the resumed job differs from statics.Analyze:\n%s\nwant\n%s", got, want)
	}
	if text := logs.String(); !strings.Contains(text, `"phase":"resume"`) || strings.Contains(text, `"phase":"merge"`) {
		t.Errorf("the handed-off job did not resume from its merge checkpoint:\n%s", text)
	}
}
