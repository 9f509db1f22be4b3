package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// One server, four requests: a serial job, an identical request at full
// parallelism (which must hit the cache — parallelism is not part of the
// key), a distinct parallel job whose requested parallelism exceeds the
// server cap, and a streamed upload opened (POST /v1/traces) with the same
// excess. Afterwards /metrics must expose the parallelism gauge and the
// per-phase speedup gauges.
func TestParallelismMetricsAndCacheKey(t *testing.T) {
	// Workers: 1 keeps job execution ordered so the "most recently started
	// job" gauge is predictable. MaxParallelism is set explicitly: the
	// speedup gauges need at least one serial and one parallel sample even
	// on a single-core test runner.
	_, ts := newTestServer(t, Config{Workers: 1, MaxParallelism: 8})

	// Serial job.
	reqA := SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2, Seed: 1, Parallelism: 1}
	respA, bodyA := postJSON(t, ts.URL+"/v1/synthesize", reqA)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("POST A = %d: %s", respA.StatusCode, bodyA)
	}
	var srA SynthesizeResponse
	if err := json.Unmarshal(bodyA, &srA); err != nil {
		t.Fatal(err)
	}
	if srA.Job.Parallelism != 1 {
		t.Errorf("job A parallelism = %d, want 1", srA.Job.Parallelism)
	}
	if v := waitJob(t, ts.URL, srA.Job.ID); v.Status != StatusDone {
		t.Fatalf("job A finished %s (%s)", v.Status, v.Error)
	}

	// Same synthesis at a different parallelism: must be a cache hit,
	// because parallelism does not change the output or the key.
	reqB := reqA
	reqB.Parallelism = 8
	respB, bodyB := postJSON(t, ts.URL+"/v1/synthesize", reqB)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("POST B = %d, want 200 (cache hit): %s", respB.StatusCode, bodyB)
	}
	var srB SynthesizeResponse
	if err := json.Unmarshal(bodyB, &srB); err != nil {
		t.Fatal(err)
	}
	if !srB.Cached {
		t.Error("request differing only in parallelism must hit the artifact cache")
	}

	// Distinct parallel job; the absurd request is clamped to the cap.
	reqC := SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2, Seed: 2, Parallelism: 999}
	respC, bodyC := postJSON(t, ts.URL+"/v1/synthesize", reqC)
	if respC.StatusCode != http.StatusAccepted {
		t.Fatalf("POST C = %d: %s", respC.StatusCode, bodyC)
	}
	var srC SynthesizeResponse
	if err := json.Unmarshal(bodyC, &srC); err != nil {
		t.Fatal(err)
	}
	if srC.Job.Parallelism != 8 {
		t.Errorf("job C parallelism = %d, want clamped 8", srC.Job.Parallelism)
	}
	if v := waitJob(t, ts.URL, srC.Job.ID); v.Status != StatusDone {
		t.Fatalf("job C finished %s (%s)", v.Status, v.Error)
	}

	// A streamed upload opened with the same absurd request goes through
	// the same clamp; its committed job runs at the cap.
	cr := streamTrace(t, ts.URL, recordedTrace(t, 8), TraceOpenRequest{Parallelism: 999})
	if cr.Job.Parallelism != 8 {
		t.Errorf("streamed job parallelism = %d, want clamped 8", cr.Job.Parallelism)
	}
	if v := waitJob(t, ts.URL, cr.Job.ID); v.Status != StatusDone {
		t.Fatalf("streamed job finished %s (%s)", v.Status, v.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)

	// The most recently started job ran at the cap.
	if !strings.Contains(text, "siesta_phase_parallelism 8") {
		t.Errorf("metrics missing siesta_phase_parallelism 8:\n%s", text)
	}
	// One serial and one parallel job have completed, so every synthesis
	// phase exposes a speedup gauge with a positive finite value. The
	// parallel job ran with overlapped baseline/trace phases, so those two
	// report on the overlap="true" series; the sequential tail phases
	// report on overlap="false".
	for phase, overlap := range map[string]string{
		"baseline": "true", "trace": "true",
		"merge": "false", "check": "false", "codegen": "false",
	} {
		re := regexp.MustCompile(`siesta_phase_speedup\{overlap="` + overlap + `",phase="` + phase + `"\} ([0-9.e+-]+)`)
		mt := re.FindStringSubmatch(text)
		if mt == nil {
			t.Errorf("metrics missing siesta_phase_speedup for phase %q overlap=%s:\n%s", phase, overlap, text)
			continue
		}
		if mt[1] == "0" {
			t.Errorf("phase %q speedup is zero", phase)
		}
	}
}
