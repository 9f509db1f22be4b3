// Gateway routing for streaming trace ingest. A session's chunks must all
// land on one worker — the incremental grammars live in that process — so
// the gateway pins each session to a worker at open time and proxies every
// later call on the session id. Open requests that pre-declare their
// content digest are routed by the same cache key the commit will resolve
// to, keeping streamed uploads ring-affine with one-shot uploads of the
// same content; undeclared opens are spread by the request body.
//
// A committed streamed job can never fail over: the chunks died with the
// worker that held them, and there is no request body to re-submit. Such
// jobs are marked noFailover, and the failover scan settles them as lost
// instead of re-dispatching.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"siesta/internal/server"
	"siesta/internal/server/cache"
)

// gwSession pins one open streaming upload to a worker.
type gwSession struct {
	mu     sync.Mutex
	id     string // gateway-facing id, gt-%06d
	key    string // declared cache key; "" when content_sha256 was not declared
	worker string
	addr   string
	remote string // session id on the worker
}

func (s *gwSession) snapshot() (worker, addr, remote string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worker, s.addr, s.remote
}

func (g *Gateway) lookupSession(gid string) (*gwSession, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[gid]
	return s, ok
}

func (g *Gateway) dropSession(gid string) {
	g.mu.Lock()
	delete(g.sessions, gid)
	g.mu.Unlock()
}

func (g *Gateway) handleTraceOpen(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req server.TraceOpenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeGatewayError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "encode request: %v", err)
		return
	}
	// Route on the final cache key when the client declared it, so the
	// session lands on the worker whose cache its artifact belongs to;
	// otherwise any placement is as good as any other — spread by body.
	routeKey := "ingest-open:" + string(body)
	var declared cache.Key
	if req.ContentSHA256 != "" {
		k, kerr := server.IngestRequestKey(&req)
		if kerr != nil {
			writeGatewayError(w, http.StatusBadRequest, "%v", kerr)
			return
		}
		declared = k
		routeKey = string(k)
	}

	rt := g.currentRoutes()
	cands := rt.successors(routeKey, 3)
	if len(cands) == 0 {
		writeGatewayError(w, http.StatusServiceUnavailable, "no ready workers in the fleet")
		return
	}
	for _, cand := range cands {
		preq, perr := http.NewRequestWithContext(r.Context(), http.MethodPost,
			strings.TrimSuffix(cand.Addr, "/")+"/v1/traces", bytes.NewReader(body))
		if perr != nil {
			continue
		}
		preq.Header.Set("Content-Type", "application/json")
		resp, perr := g.hc.Do(preq)
		if perr != nil {
			g.mProxyErr.Inc()
			g.evict(r.Context(), cand.ID)
			continue
		}
		raw, rerr := readAllLimited(resp.Body, maxRequestBody)
		resp.Body.Close()
		if rerr != nil {
			g.mProxyErr.Inc()
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			// Validation errors and backpressure are the worker's verdict;
			// relay untouched.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Siesta-Worker", cand.ID)
			w.WriteHeader(resp.StatusCode)
			w.Write(raw)
			return
		}
		var or server.TraceOpenResponse
		if err := json.Unmarshal(raw, &or); err != nil {
			writeGatewayError(w, http.StatusBadGateway, "decode worker response: %v", err)
			return
		}
		sess := &gwSession{key: string(declared), worker: cand.ID, addr: cand.Addr, remote: or.ID}
		g.mu.Lock()
		g.nextSess++
		sess.id = fmt.Sprintf("gt-%06d", g.nextSess)
		g.sessions[sess.id] = sess
		g.mu.Unlock()
		g.logEvent("ingest_routed", map[string]any{
			"session": sess.id, "worker": cand.ID, "remote": or.ID, "key": sess.key,
		})
		or.ID = sess.id
		w.Header().Set("X-Siesta-Worker", cand.ID)
		writeGatewayJSON(w, http.StatusCreated, or)
		return
	}
	writeGatewayError(w, http.StatusServiceUnavailable, "all candidate workers for this session are unreachable")
}

// proxySession forwards one session-scoped call to the pinned worker and
// returns the relayed status, or 0 if the response was already written.
func (g *Gateway) proxySession(w http.ResponseWriter, r *http.Request, sess *gwSession, method, suffix string, body []byte) (int, []byte) {
	worker, addr, remote := sess.snapshot()
	preq, err := http.NewRequestWithContext(r.Context(), method,
		strings.TrimSuffix(addr, "/")+"/v1/traces/"+remote+suffix, bytes.NewReader(body))
	if err != nil {
		writeGatewayError(w, http.StatusBadGateway, "%v", err)
		return 0, nil
	}
	resp, err := g.hc.Do(preq)
	if err != nil {
		// The pinned worker is gone and its partial session state with it;
		// the client must reopen and re-stream.
		g.mProxyErr.Inc()
		g.dropSession(sess.id)
		g.logEvent("ingest_session_lost", map[string]any{"session": sess.id, "worker": worker})
		writeGatewayError(w, http.StatusBadGateway,
			"worker %s holding session %s is unreachable; reopen and re-stream", worker, sess.id)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := readAllLimited(resp.Body, maxRequestBody)
	if err != nil {
		g.mProxyErr.Inc()
		writeGatewayError(w, http.StatusBadGateway, "read worker response: %v", err)
		return 0, nil
	}
	w.Header().Set("X-Siesta-Worker", worker)
	return resp.StatusCode, raw
}

// relay writes a proxied response verbatim, rewriting nothing.
func relay(w http.ResponseWriter, status int, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
}

func (g *Gateway) handleTraceAppend(w http.ResponseWriter, r *http.Request) {
	sess, ok := g.lookupSession(r.PathValue("id"))
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	chunk, err := io.ReadAll(r.Body)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "read chunk: %v", err)
		return
	}
	status, raw := g.proxySession(w, r, sess, http.MethodPut, "/ranks/"+r.PathValue("rank"), chunk)
	if status != 0 {
		relay(w, status, raw)
	}
}

func (g *Gateway) handleTraceStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := g.lookupSession(r.PathValue("id"))
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	status, raw := g.proxySession(w, r, sess, http.MethodGet, "", nil)
	if status == 0 {
		return
	}
	var sv server.TraceStatusView
	if status == http.StatusOK && json.Unmarshal(raw, &sv) == nil {
		sv.ID = sess.id
		writeGatewayJSON(w, http.StatusOK, sv)
		return
	}
	relay(w, status, raw)
}

func (g *Gateway) handleTraceAbort(w http.ResponseWriter, r *http.Request) {
	sess, ok := g.lookupSession(r.PathValue("id"))
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	status, raw := g.proxySession(w, r, sess, http.MethodDelete, "", nil)
	if status == 0 {
		return
	}
	if status < 300 || status == http.StatusNotFound {
		g.dropSession(sess.id)
	}
	relay(w, status, raw)
}

func (g *Gateway) handleTraceCommit(w http.ResponseWriter, r *http.Request) {
	sess, ok := g.lookupSession(r.PathValue("id"))
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	status, raw := g.proxySession(w, r, sess, http.MethodPost, "/commit", nil)
	if status == 0 {
		return
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		// Incomplete streams, digest mismatch, backpressure: the session
		// stays open on the worker, so keep the mapping too.
		relay(w, status, raw)
		return
	}
	var cr server.TraceCommitResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		writeGatewayError(w, http.StatusBadGateway, "decode worker response: %v", err)
		return
	}
	worker, addr, _ := sess.snapshot()
	j := &gwJob{
		key: cache.Key(cr.CacheKey), worker: worker, addr: addr,
		remote: cr.Job.ID, noFailover: true,
	}
	if cr.Cached || cr.Job.Status == server.StatusDone {
		j.settle()
	}
	g.mu.Lock()
	g.nextID++
	j.id = fmt.Sprintf("g-%06d", g.nextID)
	g.jobs[j.id] = j
	delete(g.sessions, sess.id)
	g.mu.Unlock()
	g.mRouted.Inc()
	g.logEvent("ingest_committed", map[string]any{
		"session": sess.id, "job": j.id, "worker": worker, "remote": cr.Job.ID,
		"key": cr.CacheKey, "cached": cr.Cached,
	})
	cr.Job = rewriteView(cr.Job, j.id)
	cr.ArtifactURL = "/v1/jobs/" + j.id + "/artifact"
	writeGatewayJSON(w, status, cr)
}
