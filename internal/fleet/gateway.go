package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"siesta/internal/server"
	"siesta/internal/server/cache"
	"siesta/internal/server/metrics"
)

// GatewayConfig tunes the fleet's routing front door.
type GatewayConfig struct {
	// RegistryURL points at an external registry; empty embeds one in the
	// gateway process (the usual deployment: one stateful component fewer).
	RegistryURL string
	// TTL is the embedded registry's heartbeat TTL; ignored with an
	// external registry. 0 selects DefaultTTL.
	TTL time.Duration
	// RouteRefresh is how often the gateway refreshes its route table and
	// scans for dead-worker jobs to fail over; default 500ms.
	RouteRefresh time.Duration
	// Registry receives the gateway metrics; a private registry is created
	// when nil. With an embedded fleet registry the same instance carries
	// siesta_fleet_workers and siesta_route_epoch.
	Registry *metrics.Registry
	// Logger receives one Info record per routing event (dispatch,
	// eviction, failover); obs.EventLogger gives the JSON-line form. Nil
	// disables logging.
	Logger *slog.Logger
}

// gwJob is the gateway's record of one routed job: which worker holds it
// under which remote id, plus everything needed to re-submit it elsewhere
// if that worker dies.
type gwJob struct {
	mu        sync.Mutex
	id        string    // gateway-facing id, g-%06d
	key       cache.Key // artifact cache key = routing key
	reqJSON   []byte    // canonical original request, for failover re-submission
	worker    string    // current owner's ID
	addr      string    // current owner's base URL
	remote    string    // job id on the current owner
	done      bool      // reached a terminal status; failover stops watching
	failovers int
	// noFailover marks a job born from a streamed ingest commit: its input
	// chunks lived only on the worker that ran it, so there is nothing to
	// re-submit — a dead owner settles the job as lost instead.
	noFailover bool
}

// settle marks the job terminal and drops its failover body: a settled job
// is never re-submitted (redispatchLocked only sees jobs that are not done),
// and the body — trace included for uploads — would otherwise stay live for
// as long as the gateway remembers the job. Callers hold j.mu or own j
// exclusively.
func (j *gwJob) settle() {
	j.done = true
	j.reqJSON = nil
}

// placed records the worker that accepted the job and the job's id there;
// a job answered from the cache, or already done, settles at once.
// Callers hold j.mu or own j exclusively.
func (j *gwJob) placed(to WorkerInfo, sr *server.SynthesizeResponse) {
	j.worker, j.addr, j.remote = to.ID, to.Addr, sr.Job.ID
	if sr.Cached || sr.Job.Status == server.StatusDone {
		j.settle()
	}
}

// Gateway is the stateless routing tier: it owns no synthesis state, only
// the (rebuildable) mapping from its job ids to worker-local ones. Every
// request is routed by its content-addressed artifact cache key, so the
// ring sends a key to the same worker that previously cached it.
type Gateway struct {
	cfg GatewayConfig
	reg *Registry       // embedded registry; nil when external
	rc  *RegistryClient // external registry client; nil when embedded
	hc  *http.Client
	mr  *metrics.Registry

	mu       sync.Mutex
	routes   *routes
	jobs     map[string]*gwJob
	nextID   int
	sessions map[string]*gwSession // open streamed-upload sessions, gt-%06d
	nextSess int

	mRouted    *metrics.Counter
	mFailovers *metrics.Counter
	mProxyErr  *metrics.Counter
	gWorkers   *metrics.Gauge
	gEpoch     *metrics.Gauge
}

// NewGateway builds a gateway; call Run to start its refresh and failover
// loops, and serve Handler.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.RouteRefresh <= 0 {
		cfg.RouteRefresh = 500 * time.Millisecond
	}
	mr := cfg.Registry
	if mr == nil {
		mr = metrics.NewRegistry()
	}
	g := &Gateway{
		cfg:        cfg,
		hc:         &http.Client{Timeout: 10 * time.Second},
		mr:         mr,
		routes:     newRoutes(Table{}),
		jobs:       make(map[string]*gwJob),
		sessions:   make(map[string]*gwSession),
		mRouted:    mr.Counter("siesta_gateway_jobs_routed_total", "synthesize requests routed to a worker"),
		mFailovers: mr.Counter("siesta_gateway_failovers_total", "jobs re-dispatched after their worker died"),
		mProxyErr:  mr.Counter("siesta_gateway_proxy_errors_total", "proxied worker calls that failed"),
	}
	if cfg.RegistryURL == "" {
		// Embedded registry: it reports the fleet gauges into the shared
		// metrics registry itself.
		g.reg = NewRegistry(cfg.TTL, mr)
	} else {
		g.rc = NewRegistryClient(cfg.RegistryURL, nil)
		g.gWorkers = mr.Gauge("siesta_fleet_workers", "ready workers in the route table")
		g.gEpoch = mr.Gauge("siesta_route_epoch", "route-table epoch; bumps on membership or readiness change")
	}
	return g
}

// logEvent logs one routing event at Info with its attributes as slog
// key/value pairs, in call order.
func (g *Gateway) logEvent(event string, args ...any) {
	if lg := g.cfg.Logger; lg != nil {
		lg.Info(event, args...)
	}
}

// refreshRoutes pulls the registry's current table and publishes it if its
// epoch is not older than the cached one.
func (g *Gateway) refreshRoutes(ctx context.Context) {
	var (
		t   Table
		err error
	)
	if g.reg != nil {
		t = g.reg.Table()
	} else {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		t, err = g.rc.Route(rctx)
		cancel()
		if err != nil {
			return
		}
	}
	rt := newRoutes(t)
	g.mu.Lock()
	if rt.table.Epoch >= g.routes.table.Epoch {
		g.routes = rt
	}
	g.mu.Unlock()
	if g.gWorkers != nil {
		g.gWorkers.Set(int64(len(t.Workers)))
		g.gEpoch.Set(int64(t.Epoch))
	}
}

func (g *Gateway) currentRoutes() *routes {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.routes
}

// evict removes a worker the gateway has proven unreachable — waiting out
// the TTL would keep routing requests at a dead node — and refreshes the
// table immediately so the very next lookup sees the shrunk ring.
func (g *Gateway) evict(ctx context.Context, id string) {
	if g.reg != nil {
		g.reg.Deregister(id)
	} else {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		g.rc.Deregister(dctx, id)
		cancel()
	}
	g.logEvent("worker_evicted", "worker", id)
	g.refreshRoutes(ctx)
}

// Run drives the gateway's background loops until ctx is done: the
// embedded registry's TTL sweeper (when embedded), plus the combined
// route-refresh / failover scan.
func (g *Gateway) Run(ctx context.Context) {
	if g.reg != nil {
		go g.reg.SweepLoop(ctx, 0)
	}
	tick := time.NewTicker(g.cfg.RouteRefresh)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			g.refreshRoutes(ctx)
			g.checkFailovers(ctx)
		}
	}
}

// --- request routing --------------------------------------------------------

// maxRequestBody mirrors the worker API's request bound.
const maxRequestBody = 16 << 20

func readAllLimited(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return data, nil
}

func writeGatewayJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Match the worker API's indentation so clients (and CI greps) see one
	// JSON dialect regardless of which tier answered.
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeGatewayError(w http.ResponseWriter, status int, format string, args ...any) {
	writeGatewayJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Handler returns the gateway's HTTP surface: the /v1 API (proxied), the
// fleet registry API (when embedded), and the gateway's own health and
// metrics endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", g.handleSynthesize)
	mux.HandleFunc("GET /v1/jobs", g.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", g.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleSubResource("trace"))
	mux.HandleFunc("GET /v1/jobs/{id}/analysis", g.handleSubResource("analysis"))
	mux.HandleFunc("POST /v1/traces", g.handleTraceOpen)
	mux.HandleFunc("GET /v1/traces/{id}", g.handleTraceStatus)
	mux.HandleFunc("PUT /v1/traces/{id}/ranks/{rank}", g.handleTraceAppend)
	mux.HandleFunc("POST /v1/traces/{id}/commit", g.handleTraceCommit)
	mux.HandleFunc("DELETE /v1/traces/{id}", g.handleTraceAbort)
	mux.HandleFunc("GET /v1/apps", g.handleApps)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.Handle("GET /metrics", g.mr.Handler())
	if g.reg != nil {
		mux.Handle("/fleet/v1/", g.reg.Handler())
	}
	return mux
}

// reply is one worker's answer to a proxied call.
type reply struct {
	to     WorkerInfo // the worker that answered
	status int
	body   []byte
}

// relay writes the worker's answer verbatim.
func (rp reply) relay(w http.ResponseWriter) {
	w.Header().Set("X-Siesta-Worker", rp.to.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rp.status)
	w.Write(rp.body)
}

// answer writes v, the worker's answer rewritten into the gateway's id
// space, under the worker's status.
func (rp reply) answer(w http.ResponseWriter, v any) {
	w.Header().Set("X-Siesta-Worker", rp.to.ID)
	writeGatewayJSON(w, rp.status, v)
}

// forward makes one proxied call to a worker; every /v1 call the gateway
// passes on goes through it. A transport failure or an unreadable answer
// is an error, counted in siesta_gateway_proxy_errors_total; any status
// the worker answers with is its verdict, for the caller to relay.
func (g *Gateway) forward(ctx context.Context, to WorkerInfo, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(to.Addr, "/")+path, rd)
	if err != nil {
		g.mProxyErr.Inc()
		return reply{}, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		g.mProxyErr.Inc()
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := readAllLimited(resp.Body, maxPeerArtifact)
	if err != nil {
		g.mProxyErr.Inc()
		return reply{}, err
	}
	return reply{to: to, status: resp.StatusCode, body: raw}, nil
}

// place sends a new request — a synthesize or a session open — to key's
// owner, then its ring successors: a dead owner must not make the request
// fail while any replica can take it. A worker it cannot reach is evicted
// and the next candidate tried. The first worker that answers decides: a
// success is returned for the caller to track, and any other status
// (validation, backpressure, drain) is the worker's verdict, relayed
// verbatim. ok is false once place has written the response.
func (g *Gateway) place(w http.ResponseWriter, r *http.Request, key, path string, body []byte) (reply, bool) {
	cands := g.currentRoutes().successors(key, 3)
	if len(cands) == 0 {
		writeGatewayError(w, http.StatusServiceUnavailable, "no ready workers in the fleet")
		return reply{}, false
	}
	for _, cand := range cands {
		rp, err := g.forward(r.Context(), cand, http.MethodPost, path, body)
		if err != nil {
			g.evict(r.Context(), cand.ID)
			continue
		}
		if rp.status >= 300 {
			rp.relay(w)
			return rp, false
		}
		return rp, true
	}
	writeGatewayError(w, http.StatusServiceUnavailable, "all candidate workers are unreachable")
	return reply{}, false
}

// track registers a job a worker accepted — a routed synthesize or a
// committed session — under a fresh gateway id, and rewrites the worker's
// answer sr into the gateway's id space. j carries the job's key and
// failover terms; track fills in its placement.
func (g *Gateway) track(j *gwJob, rp reply, sr *server.SynthesizeResponse) {
	j.placed(rp.to, sr)
	g.mu.Lock()
	g.nextID++
	j.id = fmt.Sprintf("g-%06d", g.nextID)
	g.jobs[j.id] = j
	g.mu.Unlock()
	g.mRouted.Inc()
	g.logEvent("job_routed",
		"job", j.id, "worker", j.worker, "remote", j.remote,
		"key", string(j.key), "cached", sr.Cached, "streamed", j.noFailover)
	sr.Job = rewriteView(sr.Job, j.id)
	sr.ArtifactURL = "/v1/jobs/" + j.id + "/artifact"
}

// rewriteView maps a worker-local job view onto the gateway's id space.
func rewriteView(v server.JobView, gid string) server.JobView {
	remote := v.ID
	v.ID = gid
	if v.TraceURL != "" {
		v.TraceURL = strings.Replace(v.TraceURL, remote, gid, 1)
	}
	if v.AnalysisURL != "" {
		v.AnalysisURL = strings.Replace(v.AnalysisURL, remote, gid, 1)
	}
	return v
}

func (g *Gateway) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req server.SynthesizeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeGatewayError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	key, err := server.RequestKey(&req)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Forward the body as received: the worker decodes it the same way,
	// and a failover re-submission starts from it (with resume_base64
	// added).
	rp, ok := g.place(w, r, string(key), "/v1/synthesize", body)
	if !ok {
		return
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(rp.body, &sr); err != nil {
		writeGatewayError(w, http.StatusBadGateway, "decode worker response: %v", err)
		return
	}
	g.track(&gwJob{key: key, reqJSON: body}, rp, &sr)
	rp.answer(w, sr)
}

func (g *Gateway) lookup(gid string) (*gwJob, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[gid]
	return j, ok
}

// routed resolves the gateway job a /v1/jobs/{id} request names, writing
// the 404 when there is none.
func (g *Gateway) routed(w http.ResponseWriter, r *http.Request) (*gwJob, bool) {
	j, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

// call forwards one call about the job to the worker currently holding it.
func (g *Gateway) call(r *http.Request, j *gwJob, method, suffix string) (reply, error) {
	j.mu.Lock()
	to, remote := WorkerInfo{ID: j.worker, Addr: j.addr}, j.remote
	j.mu.Unlock()
	return g.forward(r.Context(), to, method, "/v1/jobs/"+remote+suffix, nil)
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := g.routed(w, r)
	if !ok {
		return
	}
	rp, err := g.call(r, j, http.MethodGet, "")
	if err != nil {
		j.mu.Lock()
		worker, lost := j.worker, j.noFailover
		j.mu.Unlock()
		if lost {
			// A streamed job's chunks lived only on that worker; nothing
			// will re-home it, so a poller must see the loss, not a
			// perpetual synthetic "running".
			writeGatewayError(w, http.StatusBadGateway,
				"worker %s holding streamed job %s is gone; the job cannot fail over", worker, j.id)
			return
		}
		// The worker is (momentarily) unreachable. The job is not lost —
		// the failover scan re-homes it — so answer with a synthetic
		// running view rather than an error a polling client would trip on.
		writeGatewayJSON(w, http.StatusOK, server.JobView{
			ID: j.id, Status: server.StatusRunning, Phase: "failover-pending",
			Worker: worker, CacheKey: string(j.key),
		})
		return
	}
	if rp.status != http.StatusOK {
		rp.relay(w)
		return
	}
	var v server.JobView
	if err := json.Unmarshal(rp.body, &v); err != nil {
		writeGatewayError(w, http.StatusBadGateway, "decode worker job view: %v", err)
		return
	}
	if v.Status == server.StatusDone || v.Status == server.StatusFailed || v.Status == server.StatusCanceled {
		j.mu.Lock()
		j.settle()
		j.mu.Unlock()
	}
	rp.answer(w, rewriteView(v, j.id))
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := g.routed(w, r)
	if !ok {
		return
	}
	rp, err := g.call(r, j, http.MethodDelete, "")
	if err != nil {
		writeGatewayError(w, http.StatusBadGateway, "worker unreachable: %v", err)
		return
	}
	// A canceled job must not be resurrected by the failover scan.
	j.mu.Lock()
	j.settle()
	j.mu.Unlock()
	var v server.JobView
	if rp.status == http.StatusOK && json.Unmarshal(rp.body, &v) == nil {
		rp.answer(w, rewriteView(v, j.id))
		return
	}
	rp.relay(w)
}

// handleArtifact proxies the artifact with a fleet-grade fallback: the
// artifact is content-addressed, so if the worker that ran the job is gone
// the gateway asks the key's current ring neighbourhood directly.
func (g *Gateway) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := g.routed(w, r)
	if !ok {
		return
	}
	if rp, err := g.call(r, j, http.MethodGet, "/artifact"); err == nil {
		rp.relay(w)
		return
	}
	rt := g.currentRoutes()
	for _, cand := range rt.successors(string(j.key), 3) {
		if art, ok := fetchPeerArtifact(r.Context(), g.hc, cand.Addr, j.key); ok {
			w.Header().Set("X-Siesta-Worker", cand.ID)
			writeGatewayJSON(w, http.StatusOK, art)
			return
		}
	}
	writeGatewayError(w, http.StatusBadGateway, "no live replica holds artifact %s", j.key)
}

// handleSubResource proxies trace/analysis documents verbatim.
func (g *Gateway) handleSubResource(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := g.routed(w, r)
		if !ok {
			return
		}
		rp, err := g.call(r, j, http.MethodGet, "/"+kind)
		if err != nil {
			writeGatewayError(w, http.StatusBadGateway, "worker unreachable: %v", err)
			return
		}
		rp.relay(w)
	}
}

// handleListJobs reports the gateway's own routing records — placement,
// not lifecycle; poll GET /v1/jobs/{id} for a job's live status.
func (g *Gateway) handleListJobs(w http.ResponseWriter, r *http.Request) {
	type routedJob struct {
		ID        string `json:"id"`
		CacheKey  string `json:"cache_key"`
		Worker    string `json:"worker"`
		Done      bool   `json:"done"`
		Failovers int    `json:"failovers,omitempty"`
	}
	g.mu.Lock()
	ids := make([]string, 0, len(g.jobs))
	for id := range g.jobs { //maporder:ok — sorted below before the slice escapes
		ids = append(ids, id)
	}
	jobs := make([]*gwJob, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		jobs = append(jobs, g.jobs[id])
	}
	g.mu.Unlock()
	out := make([]routedJob, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, routedJob{ID: j.id, CacheKey: string(j.key),
			Worker: j.worker, Done: j.done, Failovers: j.failovers})
		j.mu.Unlock()
	}
	writeGatewayJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleApps(w http.ResponseWriter, r *http.Request) {
	for _, wi := range g.currentRoutes().table.Workers {
		if rp, err := g.forward(r.Context(), wi, http.MethodGet, "/v1/apps", nil); err == nil && rp.status == http.StatusOK {
			rp.relay(w)
			return
		}
	}
	writeGatewayError(w, http.StatusServiceUnavailable, "no worker answered the app catalog")
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt := g.currentRoutes()
	writeGatewayJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "role": "gateway",
		"workers": len(rt.table.Workers), "epoch": rt.table.Epoch,
	})
}

// handleReadyz: a gateway with an empty route table can only say 503, so
// load balancers keep traffic on gateways that can actually place work.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt := g.currentRoutes()
	if len(rt.table.Workers) == 0 {
		writeGatewayJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not ready", "reason": "no ready workers"})
		return
	}
	writeGatewayJSON(w, http.StatusOK, map[string]any{"status": "ready", "workers": len(rt.table.Workers)})
}

// --- failover ---------------------------------------------------------------

// checkFailovers re-homes jobs whose worker has left the route table: it
// recovers the job's replicated phase-boundary checkpoint from the key's
// live ring neighbourhood, attaches it to the original request as
// resume_base64, and re-submits to the key's current owner — so the job
// finishes elsewhere, resuming where the dead node stopped instead of at
// phase zero.
func (g *Gateway) checkFailovers(ctx context.Context) {
	rt := g.currentRoutes()
	g.mu.Lock()
	watch := make([]*gwJob, 0, len(g.jobs))
	for _, j := range g.jobs { //maporder:ok — order-insensitive scan; each job is handled independently
		watch = append(watch, j)
	}
	g.mu.Unlock()
	for _, j := range watch {
		j.mu.Lock()
		if j.done || rt.has(j.worker) {
			j.mu.Unlock()
			continue
		}
		if j.noFailover {
			// The streamed chunks died with the worker; the job cannot be
			// re-run anywhere. Settle it as lost so the scan stops watching.
			j.settle()
			j.mu.Unlock()
			g.logEvent("job_lost", "job", j.id, "worker", j.worker,
				"reason", "streamed ingest cannot fail over")
			continue
		}
		g.redispatchLocked(ctx, rt, j)
		j.mu.Unlock()
	}
}

// redispatchLocked re-submits one orphaned job; caller holds j.mu.
func (g *Gateway) redispatchLocked(ctx context.Context, rt *routes, j *gwJob) {
	owner, ok := rt.owner(string(j.key))
	if !ok {
		return // fleet momentarily empty; retry next scan
	}
	body := j.reqJSON
	// Recover the newest checkpoint replica from the key's live
	// neighbourhood. Losing the race (no replica) degrades to a cold
	// re-run — slower, byte-identical output.
	var resumed bool
	for _, cand := range rt.successors(string(j.key), 3) {
		fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		blob, ok := fetchPeerCheckpoint(fctx, g.hc, cand.Addr, j.key)
		cancel()
		if !ok {
			continue
		}
		var req server.SynthesizeRequest
		if err := json.Unmarshal(j.reqJSON, &req); err != nil {
			break
		}
		req.ResumeBase64 = base64.StdEncoding.EncodeToString(blob)
		if b, err := json.Marshal(&req); err == nil {
			body = b
			resumed = true
		}
		break
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	rp, err := g.forward(dctx, owner, http.MethodPost, "/v1/synthesize", body)
	cancel()
	if err != nil {
		g.evict(ctx, owner.ID)
		return // next scan retries against the shrunk ring
	}
	var sr server.SynthesizeResponse
	if rp.status >= 300 || json.Unmarshal(rp.body, &sr) != nil {
		g.logEvent("failover_rejected", "job", j.id, "worker", owner.ID, "status", rp.status)
		return
	}
	dead := j.worker
	j.placed(owner, &sr)
	j.failovers++
	g.mFailovers.Inc()
	g.logEvent("job_failover",
		"job", j.id, "from", dead, "to", owner.ID, "remote", sr.Job.ID,
		"resumed", resumed, "cached", sr.Cached)
}
