package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"siesta/internal/server"
	"siesta/internal/server/cache"
)

// WorkerConfig tunes one fleet worker node.
type WorkerConfig struct {
	// ID is the worker's stable ring identity; required, unique per fleet.
	ID string
	// AdvertiseURL is the base URL peers and the gateway reach this
	// worker at (scheme + host + port); required.
	AdvertiseURL string
	// RegistryURL is the registry's base URL (typically the gateway, which
	// embeds it); required.
	RegistryURL string
	// Heartbeat is the registration refresh cadence; default 1s, and it
	// must be comfortably inside the registry's TTL.
	Heartbeat time.Duration
	// PeerFanout is how many ring successors (beyond this node) are asked
	// on a local cache miss; default 2.
	PeerFanout int
	// Server configures the wrapped synthesis service. WorkerID, PeerFetch
	// and CheckpointSink are overwritten by the fleet wiring.
	Server server.Config
}

// Worker wraps internal/server with fleet membership: registration and
// heartbeats against the registry, a peer API (artifact fetch, checkpoint
// replication) for the other replicas, and the PeerFetch/CheckpointSink
// hooks that make the wrapped server consult and feed the fleet.
type Worker struct {
	cfg WorkerConfig
	srv *server.Server
	rc  *RegistryClient
	hc  *http.Client // peer-to-peer calls

	mu     sync.Mutex
	routes *routes

	// Replicated checkpoints from ring predecessors (plus this node's
	// own), keyed by artifact cache key. Bounded FIFO: checkpoints are a
	// failover aid, not durable state.
	ckptMu   sync.Mutex
	ckpts    map[cache.Key][]byte
	ckptFIFO []cache.Key

	// replWG tracks in-flight async checkpoint replications so Close can
	// wait instead of leaking goroutines into test shutdown.
	replWG sync.WaitGroup
}

// maxReplicatedCkpts bounds the per-node checkpoint replica store.
const maxReplicatedCkpts = 128

// NewWorker builds the worker and its wrapped server (which starts its
// pool and, with a StateDir, replays its journal before returning).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" || cfg.AdvertiseURL == "" || cfg.RegistryURL == "" {
		return nil, errors.New("fleet: worker needs ID, AdvertiseURL and RegistryURL")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.PeerFanout <= 0 {
		cfg.PeerFanout = 2
	}
	w := &Worker{
		cfg:    cfg,
		rc:     NewRegistryClient(cfg.RegistryURL, nil),
		hc:     &http.Client{Timeout: 5 * time.Second},
		routes: newRoutes(Table{}),
		ckpts:  make(map[cache.Key][]byte),
	}
	scfg := cfg.Server
	scfg.WorkerID = cfg.ID
	scfg.PeerFetch = w.peerFetch
	scfg.CheckpointSink = w.checkpointSink
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	return w, nil
}

// Server exposes the wrapped synthesis service (metrics, shutdown).
func (w *Worker) Server() *server.Server { return w.srv }

// setRoutes publishes a fresh route table.
func (w *Worker) setRoutes(t Table) {
	rt := newRoutes(t)
	w.mu.Lock()
	if rt.table.Epoch >= w.routes.table.Epoch {
		w.routes = rt
	}
	w.mu.Unlock()
}

func (w *Worker) currentRoutes() *routes {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.routes
}

// peerFetch is the server's cache-miss hook: ask the key's ring
// neighbourhood (excluding this node) whether any replica already holds
// the artifact. First answer wins; every failure is just a miss.
func (w *Worker) peerFetch(key cache.Key) (*cache.Artifact, bool) {
	rt := w.currentRoutes()
	for _, cand := range rt.successors(string(key), w.cfg.PeerFanout+1) {
		if cand.ID == w.cfg.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		art, ok := fetchPeerArtifact(ctx, w.hc, cand.Addr, key)
		cancel()
		if ok {
			return art, true
		}
	}
	return nil, false
}

// checkpointSink is the server's phase-boundary hook: keep the blob
// locally (the gateway may ask any live node) and replicate it to the
// key's first ring successor that is not this node, asynchronously — a
// checkpoint save must never stall the synthesis it is checkpointing.
func (w *Worker) checkpointSink(key cache.Key, blob []byte) {
	w.storeCheckpoint(key, blob)
	rt := w.currentRoutes()
	var target WorkerInfo
	for _, cand := range rt.successors(string(key), w.cfg.PeerFanout+1) {
		if cand.ID != w.cfg.ID {
			target = cand
			break
		}
	}
	if target.ID == "" {
		return // single-node fleet: nothing to replicate to
	}
	w.replWG.Add(1)
	go func() {
		defer w.replWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Best effort: a failed replication means failover falls back one
		// boundary (or to a cold run), never a wrong result.
		_ = putPeerCheckpoint(ctx, w.hc, target.Addr, key, blob)
	}()
}

// storeCheckpoint admits a blob into the bounded replica store.
func (w *Worker) storeCheckpoint(key cache.Key, blob []byte) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if _, exists := w.ckpts[key]; !exists {
		w.ckptFIFO = append(w.ckptFIFO, key)
		for len(w.ckptFIFO) > maxReplicatedCkpts {
			evict := w.ckptFIFO[0]
			w.ckptFIFO = w.ckptFIFO[1:]
			delete(w.ckpts, evict)
		}
	}
	w.ckpts[key] = blob
}

func (w *Worker) loadCheckpoint(key cache.Key) ([]byte, bool) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	blob, ok := w.ckpts[key]
	return blob, ok
}

// Handler serves the worker's full surface: the peer API plus the wrapped
// server's /v1 API (which stamps X-Siesta-Worker on every response).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/v1/artifact/{key}", w.handlePeerArtifact)
	mux.HandleFunc("GET /peer/v1/checkpoint/{key}", w.handlePeerCheckpointGet)
	mux.HandleFunc("PUT /peer/v1/checkpoint/{key}", w.handlePeerCheckpointPut)
	mux.Handle("/", w.srv.Handler())
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("X-Siesta-Worker", w.cfg.ID)
		mux.ServeHTTP(rw, r)
	})
}

func (w *Worker) handlePeerArtifact(rw http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	art, ok := w.srv.Artifact(key)
	if !ok {
		http.Error(rw, "artifact not held here", http.StatusNotFound)
		return
	}
	writeFleetJSON(rw, http.StatusOK, art)
}

func (w *Worker) handlePeerCheckpointGet(rw http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	blob, ok := w.loadCheckpoint(key)
	if !ok {
		http.Error(rw, "no checkpoint replica held here", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(blob)
}

func (w *Worker) handlePeerCheckpointPut(rw http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	blob, err := readAllLimited(r.Body, maxPeerArtifact)
	if err != nil || len(blob) == 0 {
		http.Error(rw, "empty or oversized checkpoint", http.StatusBadRequest)
		return
	}
	w.storeCheckpoint(key, blob)
	rw.WriteHeader(http.StatusNoContent)
}

// Run keeps the worker registered until ctx is done: register (retrying
// while the registry is unreachable), then heartbeat every Heartbeat tick,
// refreshing the route table whenever the epoch moves. Readiness tracks
// the wrapped server, so a draining worker leaves the route table on its
// next beat rather than at TTL expiry.
func (w *Worker) Run(ctx context.Context) {
	info := WorkerInfo{ID: w.cfg.ID, Addr: w.cfg.AdvertiseURL}
	registered := false
	var epoch uint64
	refresh := func() {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if t, err := w.rc.Route(rctx); err == nil {
			w.setRoutes(t)
		}
	}
	tick := time.NewTicker(w.cfg.Heartbeat)
	defer tick.Stop()
	for {
		ready := w.srv.Ready()
		hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		var (
			e   uint64
			err error
		)
		if !registered {
			e, err = w.rc.Register(hctx, info, ready)
		} else {
			e, err = w.rc.Heartbeat(hctx, w.cfg.ID, ready)
		}
		cancel()
		switch {
		case err == nil:
			if !registered || e != epoch {
				refresh()
			}
			registered, epoch = true, e
		case errors.Is(err, ErrUnknownWorker):
			registered = false // TTL expired or registry restarted: re-register next tick
		default:
			// Registry unreachable: keep trying; the TTL decides liveness.
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// Close gracefully leaves the fleet: deregister so the gateway stops
// routing here immediately, wait for in-flight checkpoint replications,
// then drain the wrapped server. A drain error wins; after a clean drain a
// failed deregistration comes back as a *DeregisterError.
func (w *Worker) Close(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	derr := w.rc.Deregister(dctx, w.cfg.ID)
	cancel()
	w.replWG.Wait()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	if derr != nil {
		return &DeregisterError{Err: derr}
	}
	return nil
}

// DeregisterError reports that a worker drained cleanly but could not tell
// its registry it left, typically because the registry stopped first. The
// registry's heartbeat expiry drops the worker anyway, so it is a warning,
// not a failed shutdown.
type DeregisterError struct{ Err error }

func (e *DeregisterError) Error() string { return "fleet: deregister: " + e.Err.Error() }

func (e *DeregisterError) Unwrap() error { return e.Err }
