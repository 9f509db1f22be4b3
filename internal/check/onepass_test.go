package check_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"siesta/internal/check"
	"siesta/internal/server"
)

// TestAnalyzedJobRunsMachineOnce pins that a served job with "analyze":
// true runs the abstract machine exactly once: core's check gate carries
// the statics collector, and the analyze phase only folds what it saw.
func TestAnalyzedJobRunsMachineOnce(t *testing.T) {
	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	before := check.MachineRuns()
	body, _ := json.Marshal(server.SynthesizeRequest{App: "CG", Ranks: 8, Iters: 2, Analyze: true})
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr server.SynthesizeResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST analyzed job = %d (%v)", resp.StatusCode, err)
	}
	v := sr.Job
	for deadline := time.Now().Add(60 * time.Second); v.Status == server.StatusQueued || v.Status == server.StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", v.ID, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if v.Status != server.StatusDone || v.AnalysisURL == "" {
		t.Fatalf("analyzed job: %s (%s), analysis_url %q", v.Status, v.Error, v.AnalysisURL)
	}
	resp, err = http.Get(ts.URL + v.AnalysisURL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(data) {
		t.Fatalf("GET %s = %d: %s", v.AnalysisURL, resp.StatusCode, data)
	}
	if runs := check.MachineRuns() - before; runs != 1 {
		t.Errorf("an analyzed job ran the machine %d times, want 1", runs)
	}
}
