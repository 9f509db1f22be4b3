package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"siesta/internal/server"
)

// A worker whose registry is already gone still drains cleanly: Close
// returns the failed deregistration as a *DeregisterError, which the
// worker verb prints as a warning before exiting 0, and the wrapped server
// has shut down.
func TestCloseWithRegistryDownDrains(t *testing.T) {
	reg := httptest.NewServer(http.NotFoundHandler())
	regURL := reg.URL
	reg.Close()

	w, err := NewWorker(WorkerConfig{
		ID: "w1", AdvertiseURL: "http://127.0.0.1:1", RegistryURL: regURL,
		Server: server.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = w.Close(ctx)
	var derr *DeregisterError
	if !errors.As(err, &derr) {
		t.Fatalf("Close with the registry down = %v, want a *DeregisterError", err)
	}
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(`{"app":"CG","ranks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("a job posted after Close got %d, want 503 from the drained server", resp.StatusCode)
	}
}
