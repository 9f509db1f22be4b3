// Streaming trace ingest: the chunked-upload half of the HTTP API.
//
// A client opens a session (POST /v1/traces), streams each rank's
// chunk-encoded trace in arbitrarily sized pieces (PUT
// /v1/traces/{id}/ranks/{rank}), and commits (POST /v1/traces/{id}/commit)
// to turn the session into a regular synthesis job. Chunks are decoded and
// interned as they arrive; each rank buffers its events (up to a fixed
// cap) until its end frame, and the PUT carrying that frame runs Sequitur
// only when no earlier rank of the session had the same sequence (merge's
// leaf classes). The terminal tables can spill to disk past a per-rank
// high-water mark, so the server never needs the whole trace in memory at
// once. The contract (held by the differential suite in internal/core) is
// that the committed job's artifact is byte-identical to the one POST
// /v1/synthesize produces for the same trace uploaded in one shot —
// whatever the chunk size and rank interleaving.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/server/cache"
	"siesta/internal/trace"
)

// maxIngestRanks bounds the per-session rank count a client may declare;
// each rank costs a decoder, an event buffer, and a terminal table.
const maxIngestRanks = 1 << 16

// TraceOpenRequest is the POST /v1/traces body. NumRanks is required; the
// tuning fields mirror SynthesizeRequest. A scaled session shrinks exactly
// as a one-shot trace_base64 upload of the same trace does: neither
// transport carries call timings, so communication volumes stay as traced
// and the computation targets shrink.
type TraceOpenRequest struct {
	NumRanks int `json:"num_ranks"`

	Platform string  `json:"platform,omitempty"`
	Impl     string  `json:"impl,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`

	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	Analyze     bool  `json:"analyze,omitempty"`
	MaxRetries  *int  `json:"max_retries,omitempty"`

	// ContentSHA256 optionally pre-declares the session's content digest
	// (hex sha256 over the per-rank stream digests in rank order — what
	// `siesta upload` computes before contacting the server). Declaring it
	// lets the open response carry the final cache key, which is what the
	// fleet gateway consistent-hash routes on; commit verifies the streamed
	// bytes actually hash to it.
	ContentSHA256 string `json:"content_sha256,omitempty"`

	// SpillHighWater bounds each rank's resident terminal-table bytes;
	// past it, further terminals spill to disk (see trace.SpillConfig).
	// 0 keeps every terminal resident. Spilling never changes output
	// bytes, so it does not enter the cache key.
	SpillHighWater int `json:"spill_high_water,omitempty"`
}

// TraceOpenResponse answers POST /v1/traces.
type TraceOpenResponse struct {
	ID       string `json:"id"`
	NumRanks int    `json:"num_ranks"`
	// CacheKey is the artifact key the session resolves to, present only
	// when the request declared content_sha256 (the key depends on the
	// content digest).
	CacheKey string `json:"cache_key,omitempty"`
}

// RankStreamView reports one rank stream's ingest progress.
type RankStreamView struct {
	Rank   int   `json:"rank"`
	Bytes  int64 `json:"bytes"`
	Events int   `json:"events"`
	Ended  bool  `json:"ended"`
}

// TraceStatusView answers GET /v1/traces/{id} and append responses.
type TraceStatusView struct {
	ID       string           `json:"id"`
	NumRanks int              `json:"num_ranks"`
	Ranks    []RankStreamView `json:"ranks,omitempty"`
	Spill    trace.SpillStats `json:"spill"`
}

// TraceCommitResponse answers POST /v1/traces/{id}/commit: the same shape
// as a synthesize response plus the session's final spill statistics.
type TraceCommitResponse struct {
	SynthesizeResponse
	Spill trace.SpillStats `json:"spill"`
}

// ingestSession is one open streaming upload.
type ingestSession struct {
	id       string
	opts     core.Options // fingerprint source: raw base options + Ranks
	in       *merge.Ingest
	analyze  bool
	declared string // content_sha256 from the open request, "" if none

	timeout     time.Duration
	parallelism int
	retries     int

	// committing is set under Server.ingestMu by the commit that claims
	// the session (claimIngest) and cleared if that commit is refused.
	committing bool

	// ranks[r] serializes rank r's appends; different ranks feed
	// concurrently (the point of the protocol).
	ranks []ingestRank
}

type ingestRank struct {
	mu   sync.Mutex
	h    hash.Hash // sha256 of the rank's accepted stream bytes
	open bool      // counted in siesta_ingest_ranks_open
	done bool
}

// ingestOptions builds the synthesis options a session's tuning fields
// select, through the same baseOptions and traceOptions as a one-shot
// upload, so streamed and one-shot uploads of the same trace derive
// identical fingerprints by construction.
func ingestOptions(req *TraceOpenRequest) (core.Options, error) {
	opts, err := baseOptions(req.Platform, req.Impl, req.Scale, req.Seed)
	if err != nil {
		return core.Options{}, err
	}
	return traceOptions(opts, req.NumRanks), nil
}

// ingestCacheKey derives the artifact key for a streamed trace from its
// content digest plus the options fingerprint. The digest is over per-rank
// stream digests, not the transport chunks, so every chunking of the same
// trace resolves to the same key — the streamed analogue of traceCacheKey.
func ingestCacheKey(digest []byte, opts core.Options) cache.Key {
	return cache.KeyFrom(
		[]byte("ingest:"), digest,
		[]byte(core.OptionsFingerprint(opts)),
	)
}

// IngestRequestKey computes the cache key a streaming-upload session will
// resolve to, for requests that pre-declare their content digest — the
// gateway's routing hook, mirroring RequestKey for one-shot requests. An
// undeclared digest is an error: the key is unknowable until commit.
func IngestRequestKey(req *TraceOpenRequest) (cache.Key, error) {
	if req.NumRanks <= 0 {
		return "", errors.New("num_ranks must be positive")
	}
	if req.ContentSHA256 == "" {
		return "", errors.New("content_sha256 not declared")
	}
	digest, err := hex.DecodeString(req.ContentSHA256)
	if err != nil || len(digest) != sha256.Size {
		return "", fmt.Errorf("content_sha256: want %d hex bytes", sha256.Size)
	}
	opts, err := ingestOptions(req)
	if err != nil {
		return "", err
	}
	return ingestCacheKey(digest, opts), nil
}

func (s *Server) handleTraceOpen(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req TraceOpenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.NumRanks <= 0 {
		writeError(w, http.StatusBadRequest, "num_ranks must be positive")
		return
	}
	if req.NumRanks > maxIngestRanks {
		writeError(w, http.StatusBadRequest, "num_ranks %d exceeds limit %d", req.NumRanks, maxIngestRanks)
		return
	}
	var declaredKey cache.Key
	if req.ContentSHA256 != "" {
		k, err := IngestRequestKey(&req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		declaredKey = k
	}
	opts, err := ingestOptions(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// The throughput knobs never enter the fingerprint, which was derived
	// above from the raw options.
	timeout, par, retries := s.clamp(req.TimeoutMS, req.Parallelism, req.MaxRetries)
	sessOpts := opts // fingerprint source, before throughput knobs land
	opts.Parallelism = par
	opts.Merge.Spill = trace.SpillConfig{HighWater: req.SpillHighWater}
	if s.cfg.StateDir != "" {
		opts.Merge.Spill.Dir = spillDir(s.cfg.StateDir) // made by openState
	}
	in, err := core.NewIngest(req.NumRanks, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sess := &ingestSession{
		opts: sessOpts, in: in, analyze: req.Analyze,
		declared: req.ContentSHA256,
		timeout:  timeout, parallelism: par, retries: retries,
		ranks: make([]ingestRank, req.NumRanks),
	}
	for i := range sess.ranks {
		sess.ranks[i].h = sha256.New()
	}
	s.ingestMu.Lock()
	if len(s.ingests) >= s.cfg.MaxIngestSessions {
		s.ingestMu.Unlock()
		in.Close()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "too many open ingest sessions (%d)", s.cfg.MaxIngestSessions)
		return
	}
	sess.id = fmt.Sprintf("t-%06d", s.nextIngest)
	s.nextIngest++
	s.ingests[sess.id] = sess
	s.ingestMu.Unlock()

	s.logEvent("ingest_open",
		"session", sess.id, "ranks", req.NumRanks, "key", string(declaredKey))
	writeJSON(w, http.StatusCreated, TraceOpenResponse{
		ID: sess.id, NumRanks: req.NumRanks, CacheKey: string(declaredKey),
	})
}

func (s *Server) lookupIngest(id string) (*ingestSession, bool) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	sess, ok := s.ingests[id]
	return sess, ok
}

// closeIngest removes a session from the registry and releases its
// resources (spill file, open-rank gauge). Safe to call for a session
// already removed.
func (s *Server) closeIngest(sess *ingestSession) {
	s.ingestMu.Lock()
	delete(s.ingests, sess.id)
	s.ingestMu.Unlock()
	for i := range sess.ranks {
		rs := &sess.ranks[i]
		rs.mu.Lock()
		if rs.open {
			rs.open = false
			s.gIngestRanks.Add(-1)
		}
		rs.mu.Unlock()
	}
	sess.in.Close()
}

func (s *Server) handleTraceAppend(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupIngest(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 0 || rank >= len(sess.ranks) {
		writeError(w, http.StatusBadRequest, "rank %q out of range [0,%d)", r.PathValue("rank"), len(sess.ranks))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	chunk, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read chunk: %v", err)
		return
	}

	rs := &sess.ranks[rank]
	ri := sess.in.Rank(rank)
	rs.mu.Lock()
	if !rs.open && !rs.done {
		rs.open = true
		s.gIngestRanks.Add(1)
	}
	ferr := ri.Feed(chunk)
	if ferr == nil {
		rs.h.Write(chunk)
		s.mIngestBytes.Add(uint64(len(chunk)))
		if ri.Ended() && rs.open {
			rs.open = false
			rs.done = true
			s.gIngestRanks.Add(-1)
		}
	}
	view := RankStreamView{Rank: rank, Bytes: ri.Bytes(), Events: ri.Events(), Ended: ri.Ended()}
	rs.mu.Unlock()

	if ferr != nil {
		writeError(w, http.StatusBadRequest, "rank %d: %v", rank, ferr)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleTraceStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupIngest(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trace session %q", r.PathValue("id"))
		return
	}
	view := TraceStatusView{ID: sess.id, NumRanks: len(sess.ranks), Spill: sess.in.SpillStats()}
	for rank := range sess.ranks {
		ri := sess.in.Rank(rank)
		rs := &sess.ranks[rank]
		rs.mu.Lock()
		view.Ranks = append(view.Ranks, RankStreamView{
			Rank: rank, Bytes: ri.Bytes(), Events: ri.Events(), Ended: ri.Ended(),
		})
		rs.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, view)
}

// claimIngest takes a session for a commit or an abort in one hold of
// ingestMu: a commit marks it committing, an abort removes it from the
// registry. While a commit holds a session, a second commit and an abort
// are refused with 409, so one ingest never feeds two jobs, nor a job and
// an abort.
func (s *Server) claimIngest(w http.ResponseWriter, id string, commit bool) (*ingestSession, bool) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	sess, ok := s.ingests[id]
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown trace session %q", id)
	case sess.committing:
		writeError(w, http.StatusConflict, "trace session %s is being committed", id)
		ok = false
	case commit:
		sess.committing = true
	default:
		delete(s.ingests, id)
	}
	return sess, ok
}

func (s *Server) handleTraceAbort(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.claimIngest(w, r.PathValue("id"), false)
	if !ok {
		return
	}
	s.closeIngest(sess)
	s.logEvent("ingest_abort", "session", sess.id)
	writeJSON(w, http.StatusOK, map[string]any{"id": sess.id, "aborted": true})
}

func (s *Server) handleTraceCommit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.claimIngest(w, r.PathValue("id"), true)
	if !ok {
		return
	}
	// Whatever refuses the commit releases the claim before the handler
	// returns, so the client sees the refusal with the session open again.
	settled := false
	defer func() {
		if !settled {
			s.ingestMu.Lock()
			sess.committing = false
			s.ingestMu.Unlock()
		}
	}()
	// Every rank stream must have delivered its end frame; the per-rank
	// digests are final after that, and hashing them in rank order makes
	// the content digest independent of upload chunking and interleaving.
	content := sha256.New()
	for rank := range sess.ranks {
		rs := &sess.ranks[rank]
		rs.mu.Lock()
		ended := sess.in.Rank(rank).Ended()
		sum := rs.h.Sum(nil)
		rs.mu.Unlock()
		if !ended {
			writeError(w, http.StatusConflict, "rank %d stream is not complete", rank)
			return
		}
		content.Write(sum)
	}
	digest := content.Sum(nil)
	if sess.declared != "" && sess.declared != hex.EncodeToString(digest) {
		writeError(w, http.StatusBadRequest,
			"content digest mismatch: declared %s, streamed %s", sess.declared, hex.EncodeToString(digest))
		return
	}
	key := ingestCacheKey(digest, sess.opts)

	// The journal cannot replay a streamed session — its chunks are gone
	// with the process — so the job record carries a sentinel request that
	// recovery's prepare pass rejects, settling the job as cleanly failed
	// instead of silently dropped.
	reqJSON, _ := json.Marshal(map[string]string{"ingest": sess.id})
	jb := &job{
		app: "trace", ranks: len(sess.ranks), parallelism: sess.parallelism,
		key: key, timeout: sess.timeout, wantAnalyze: sess.analyze,
		maxRetries: sess.retries, reqJSON: reqJSON, worker: s.cfg.WorkerID,
	}
	in := &buildOnce{Ingest: sess.in}
	s.setWork(jb, sess.opts, func(opts core.Options) (*core.Result, error) {
		return core.SynthesizeIngest(in, opts)
	})
	spill := sess.in.SpillStats()
	// A rejected commit (draining, queue full) leaves the session open: its
	// chunks live only on this node, so the client either retries the
	// commit or aborts.
	s.submit(w, jb, func(sr SynthesizeResponse, admitted bool) any {
		settled = true
		if admitted {
			// The job owns the ingest now (its work fn builds and closes
			// it); drop the session record without touching the ingest.
			s.ingestMu.Lock()
			delete(s.ingests, sess.id)
			s.ingestMu.Unlock()
			s.logEvent("ingest_commit",
				"session", sess.id, "job", jb.id, "ranks", jb.ranks, "key", string(key),
				"spilled", spill.Spilled, "spilled_bytes", spill.SpilledBytes)
		} else {
			// Answered from the cache: the session's partial state is
			// simply discarded.
			s.closeIngest(sess)
		}
		return TraceCommitResponse{SynthesizeResponse: sr, Spill: spill}
	})
}

// buildOnce memoizes a committed session's Build across its job's retry
// loop: Build consumes the ingest and may run at most once, so a transient
// checkpoint failure after a successful build retries against the
// already-built program.
type buildOnce struct {
	*merge.Ingest
	once sync.Once
	prog *merge.Program
	err  error
}

func (b *buildOnce) Build() (*merge.Program, error) {
	b.once.Do(func() { b.prog, b.err = b.Ingest.Build() })
	return b.prog, b.err
}
