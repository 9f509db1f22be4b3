// Gateway routing for streaming trace ingest. A session's chunks must all
// land on one worker — the incremental grammars live in that process — so
// the gateway pins each session to a worker at open time and proxies every
// later call on the session id. Opens are placed by the same candidate
// loop as synthesize requests (place). Open requests that pre-declare their
// content digest are routed by the cache key the commit will resolve to,
// so a repeated streamed upload of the same content lands on the worker
// that cached it. That key ("ingest:" + stream digest) differs from a
// one-shot upload's ("trace:" + raw trace bytes), so the two transports
// are not ring-affine with each other; undeclared opens are spread by the
// request body.
//
// A committed streamed job can never fail over: the chunks died with the
// worker that held them, and there is no request body to re-submit. Such
// jobs are marked noFailover, and the failover scan settles them as lost
// instead of re-dispatching.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"siesta/internal/server"
	"siesta/internal/server/cache"
)

// gwSession pins one open streaming upload to a worker. It is immutable
// once registered.
type gwSession struct {
	id     string // gateway-facing id, gt-%06d
	key    string // declared cache key; "" when content_sha256 was not declared
	to     WorkerInfo
	remote string // session id on the worker
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
	rp, ok := g.place(w, r, routeKey, "/v1/traces", body)
	if !ok {
		return
	}
	var or server.TraceOpenResponse
	if err := json.Unmarshal(rp.body, &or); err != nil {
		writeGatewayError(w, http.StatusBadGateway, "decode worker response: %v", err)
		return
	}
	sess := &gwSession{key: string(declared), to: rp.to, remote: or.ID}
	g.mu.Lock()
	g.nextSess++
	sess.id = fmt.Sprintf("gt-%06d", g.nextSess)
	g.sessions[sess.id] = sess
	g.mu.Unlock()
	g.logEvent("ingest_routed",
		"session", sess.id, "worker", rp.to.ID, "remote", or.ID, "key", sess.key)
	or.ID = sess.id
	rp.answer(w, or)
}

// session resolves the open session a /v1/traces/{id} request names and
// forwards the call to the worker it is pinned to. ok is false once the
// response is written: a 404 for an unknown session, or a 502 when the
// pinned worker is unreachable — its partial session state went with it,
// so the session is dropped and the client must reopen and re-stream.
func (g *Gateway) session(w http.ResponseWriter, r *http.Request, method, suffix string, body []byte) (*gwSession, reply, bool) {
	g.mu.Lock()
	sess, ok := g.sessions[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		writeGatewayError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return nil, reply{}, false
	}
	rp, err := g.forward(r.Context(), sess.to, method, "/v1/traces/"+sess.remote+suffix, body)
	if err != nil {
		g.dropSession(sess.id)
		g.logEvent("ingest_session_lost", "session", sess.id, "worker", sess.to.ID)
		writeGatewayError(w, http.StatusBadGateway,
			"worker %s holding session %s is unreachable; reopen and re-stream", sess.to.ID, sess.id)
		return nil, reply{}, false
	}
	return sess, rp, true
}

func (g *Gateway) handleTraceAppend(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	chunk, err := io.ReadAll(r.Body)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "read chunk: %v", err)
		return
	}
	if _, rp, ok := g.session(w, r, http.MethodPut, "/ranks/"+r.PathValue("rank"), chunk); ok {
		rp.relay(w)
	}
}

func (g *Gateway) handleTraceStatus(w http.ResponseWriter, r *http.Request) {
	sess, rp, ok := g.session(w, r, http.MethodGet, "", nil)
	if !ok {
		return
	}
	var sv server.TraceStatusView
	if rp.status == http.StatusOK && json.Unmarshal(rp.body, &sv) == nil {
		sv.ID = sess.id
		rp.answer(w, sv)
		return
	}
	rp.relay(w)
}

func (g *Gateway) handleTraceAbort(w http.ResponseWriter, r *http.Request) {
	sess, rp, ok := g.session(w, r, http.MethodDelete, "", nil)
	if !ok {
		return
	}
	if rp.status < 300 || rp.status == http.StatusNotFound {
		g.dropSession(sess.id)
	}
	rp.relay(w)
}

func (g *Gateway) handleTraceCommit(w http.ResponseWriter, r *http.Request) {
	sess, rp, ok := g.session(w, r, http.MethodPost, "/commit", nil)
	if !ok {
		return
	}
	if rp.status >= 300 {
		// Incomplete streams, digest mismatch, backpressure: the session
		// stays open on the worker, so keep the mapping too.
		rp.relay(w)
		return
	}
	var cr server.TraceCommitResponse
	if err := json.Unmarshal(rp.body, &cr); err != nil {
		writeGatewayError(w, http.StatusBadGateway, "decode worker response: %v", err)
		return
	}
	j := &gwJob{key: cache.Key(cr.CacheKey), noFailover: true}
	g.track(j, rp, &cr.SynthesizeResponse)
	g.dropSession(sess.id)
	g.logEvent("ingest_committed", "session", sess.id, "job", j.id)
	rp.answer(w, cr)
}
