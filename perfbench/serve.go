package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"siesta/internal/blocks"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/fleet"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/platform"
	"siesta/internal/proxy"
	"siesta/internal/qp"
	"siesta/internal/server"
	"siesta/internal/server/cache"
	"siesta/internal/statics"
	"siesta/internal/trace"
)

const (
	// serveSlots is the synthesis worker count of the service. Each job
	// runs at jobParallelism, so the service runs at most serveSlots
	// synthesis threads, one per processor.
	serveSlots     = 2
	jobParallelism = 1
	// serveClients is the number of closed-loop clients.
	serveClients = 2
	// uploadChunk is the streamed upload's PUT size in bytes.
	uploadChunk = 1024
	// spillHighWater is each rank's resident terminal-table budget in
	// bytes on serve-stream; terminals past it spill to disk.
	spillHighWater = 512
	// pollInterval is the client's job-status poll period. Latency ends
	// at the server's Finished stamp, so polling does not quantize it.
	pollInterval = 5 * time.Millisecond
	// maxJobRecords bounds the job records the server retains. The server
	// prunes the oldest finished record once it holds more than this many,
	// so the bound must exceed the records the other client can create
	// while one job is queued, running, and fetched: a record pruned before
	// its client's last GET answers 404 and fails the job. That count
	// reached 10 on serve-oneshot, where a cache-hit repeat makes a record
	// in a few milliseconds; a bound of 8 failed about one job in a
	// thousand. Each record also keeps its job's input alive (the decoded
	// trace or the ingest session), so the default of 1024 would grow the
	// heap by close to a megabyte per job for the first 1024 jobs and make
	// peak_heap_mb count jobs completed rather than the working set.
	maxJobRecords = 64
	// routeRefresh is the gateway's route-table refresh period, short so
	// that set-up measures registration rather than the refresh timer.
	routeRefresh = 10 * time.Millisecond
)

var serveStream = &workload{
	name:    "serve-stream",
	why:     "chunked per-rank uploads to one server: chunk codec, spill, incremental merge and the server carry the load; no simulation runs",
	clients: serveClients,
	slots:   serveSlots,
	prepare: func(seed uint64, log io.Writer) (fixture, error) { return prepareServe(false, log) },
}

var serveOneshot = &workload{
	name:    "serve-oneshot",
	why:     "one-shot trace_base64 requests with analysis through a fleet gateway: batch merge, statics, the gateway hop, cache hits beside misses",
	clients: serveClients,
	slots:   serveSlots,
	prepare: func(seed uint64, log io.Writer) (fixture, error) { return prepareServe(true, log) },
}

// corpusEntry is one recorded trace and everything a client sends and
// expects for it. It holds the trace only in encoded forms: the service
// runs in the same process, and byte slices cost its garbage collector
// nothing to scan, where decoded traces would.
type corpusEntry struct {
	entry    panelEntry
	events   int
	rawBytes int
	encoded  []byte   // Trace.Encode
	b64      string   // serve-oneshot body: standard base64 of encoded
	streams  [][]byte // serve-stream: per-rank chunk streams, as `siesta upload` sends them
	digest   string   // declared content digest over the stream digests
	want     []byte   // expected artifact JSON, key cleared
	analysis []byte   // serve-oneshot: expected statics report JSON
	fid      fidelity // fidelity of the proxy the service generates
}

// serveFixture runs serve-stream or serve-oneshot against an in-process
// service stack.
type serveFixture struct {
	oneshot bool
	corpus  []*corpusEntry
	hc      *http.Client
	st      *stack

	// shadow is the memo the traced run's re-timed searches use: run-scoped
	// like the server's process-global memo, but separate from it.
	shadowMemo *blocks.Memo
	memoBefore [2]int64

	mu                sync.Mutex
	spilled, records  int
	cachedN, requests int
}

// prepareServe records the panel's traces and computes, for each, the
// batch reference the service must reproduce: merge.Build at Parallelism
// 1, check.Verify, codegen.Generate — the public calls of the one-shot
// trace path — plus the statics report and the fidelity of that proxy.
func prepareServe(oneshot bool, log io.Writer) (fixture, error) {
	fx := &serveFixture{oneshot: oneshot, shadowMemo: blocks.NewMemo(0)}
	for _, e := range panel() {
		c, err := recordEntry(e, oneshot)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e, err)
		}
		fx.corpus = append(fx.corpus, c)
	}
	fmt.Fprintf(log, "corpus: %d traces (11 apps × ranks {16,27,64} as each accepts), batch references at Parallelism 1\n", len(fx.corpus))
	return fx, nil
}

func recordEntry(e panelEntry, oneshot bool) (*corpusEntry, error) {
	fn, err := buildApp(e)
	if err != nil {
		return nil, err
	}
	res, err := core.Synthesize(fn, core.Options{
		Ranks: e.Ranks, Seed: e.Seed, Parallelism: synthSlots, SearchMemo: blocks.NewMemo(0),
	})
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	tr := res.Trace
	c := &corpusEntry{entry: e, events: tr.TotalEvents(), rawBytes: tr.RawSize(), encoded: tr.Encode()}
	if oneshot {
		c.b64 = base64.StdEncoding.EncodeToString(c.encoded)
	} else {
		content := sha256.New()
		for _, rt := range tr.Ranks {
			s := trace.ChunkEncodeRank(rt)
			sum := sha256.Sum256(s)
			content.Write(sum[:])
			c.streams = append(c.streams, s)
		}
		c.digest = hex.EncodeToString(content.Sum(nil))
	}

	prog, err := merge.Build(tr, merge.Options{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("reference merge: %w", err)
	}
	rep, err := check.Verify(prog, check.Options{ExactBytes: true})
	if err != nil || rep.HasErrors() {
		return nil, fmt.Errorf("reference program failed check.Verify: %v", err)
	}
	gen, err := codegen.Generate(prog, codegen.Options{Platform: platform.A, Check: rep, SearchMemo: blocks.NewMemo(0)})
	if err != nil {
		return nil, fmt.Errorf("reference codegen: %w", err)
	}
	st := prog.Stats()
	c.want, err = json.Marshal(&cache.Artifact{
		App: "trace", Ranks: e.Ranks, CSource: gen.CSource(), CheckSummary: rep.Summary(),
		Terminals: st.Terminals, Rules: st.Rules, SizeC: gen.SizeC,
	})
	if err != nil {
		return nil, err
	}
	if oneshot {
		srep, err := statics.Analyze(prog, platform.A, statics.Options{ExactBytes: true})
		if err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		if c.analysis, err = json.Marshal(srep); err != nil {
			return nil, err
		}
	}
	prox, err := proxy.New(gen).Run(mpi.Config{
		Platform: platform.A, Impl: netmodel.OpenMPI,
		NoiseSigma: defaultNoiseSigma, RunVariation: defaultRunVariation, Seed: e.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	c.fid = fidelity{
		ReplayErr: core.ReplayError(res.BaselineRun, prox),
		TimeErr:   core.TimeError(float64(prox.ExecTime), float64(res.BaselineRun.ExecTime)),
		Overhead:  res.Overhead,
	}
	if c.fid.ReplayErr > replayErrBound {
		return nil, fmt.Errorf("reference replay error %.2f%% above the Table 3 bound", c.fid.ReplayErr*100)
	}
	return c, nil
}

// checkArtifact compares an artifact as served with the expected one,
// ignoring only the cache key, which differs between the streamed
// (ingest:) and one-shot (trace:) paths by design. It returns the
// artifact's size_C.
func checkArtifact(want, got []byte) (int, error) {
	var a cache.Artifact
	if err := json.Unmarshal(got, &a); err != nil {
		return 0, fmt.Errorf("decode artifact: %w", err)
	}
	a.Key = ""
	norm, err := json.Marshal(&a)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(norm, want) {
		return 0, errors.New("artifact differs from the batch reference")
	}
	return a.SizeC, nil
}

func (fx *serveFixture) panelSize() int { return len(fx.corpus) }

func (fx *serveFixture) start() error {
	st, err := startStack(fx.oneshot)
	if err != nil {
		return err
	}
	fx.st = st
	fx.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	return nil
}

func (fx *serveFixture) stop() error {
	if fx.hc != nil {
		fx.hc.CloseIdleConnections()
	}
	if fx.st == nil {
		return nil
	}
	return fx.st.stop()
}

// note reports the spill share and the cache-hit share so far.
func (fx *serveFixture) note() string {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	return fmt.Sprintf("service: %d of %d terminals spilled (%.1f%%), %d of %d requests answered from the artifact cache",
		fx.spilled, fx.records, 100*ratio(float64(fx.spilled), float64(fx.records)), fx.cachedN, fx.requests)
}

func (fx *serveFixture) beginTraced() {
	h, m := blocks.DefaultMemo.Stats()
	fx.memoBefore = [2]int64{h, m}
}

// finishTraced records the server's own memo statistics over the traced
// run: the service searches against the process-global memo.
func (fx *serveFixture) finishTraced(t tally) {
	h, m := blocks.DefaultMemo.Stats()
	t.add("blocks.memo_hits", float64(h-fx.memoBefore[0]))
	t.add("blocks.memo_misses", float64(m-fx.memoBefore[1]))
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call performs one request and decodes a JSON answer into out (when
// non-nil), returning the raw body and the call's duration.
func (fx *serveFixture) call(method, url string, body []byte, out any) ([]byte, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := fx.hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode >= 300 {
		return raw, d, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, d, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return raw, d, nil
}

// served collects what one service job did, for the output check and
// the ledger.
type served struct {
	t0        time.Time
	view      server.JobView
	cached    bool
	cacheKey  string
	upload    time.Duration // open + PUTs + commit, or the one-shot POST
	admitted  time.Duration // first byte sent to the server's Created stamp, less client gaps
	appendDur time.Duration // the PUTs alone
	appendB   int
	fetch     time.Duration // artifact (and analysis) GETs
	artGET    time.Duration
	artifact  []byte
	analysis  []byte
	spill     trace.SpillStats
	sizeC     int // of the checked artifact
}

func (fx *serveFixture) job(req request, jt *jobTimer) jobResult {
	c := fx.corpus[req.Entry]
	r := jobResult{entry: req.Entry, events: c.events}
	var s *served
	var err error
	if fx.oneshot {
		s, err = fx.oneshotJob(c, req)
	} else {
		s, err = fx.streamJob(c, req)
	}
	if err == nil {
		err = fx.checkServed(c, req, s)
	}
	if jt != nil {
		if lerr := fx.ledgerServed(c, req, s, err, jt); err == nil {
			err = lerr
		}
	}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", c.entry, err)
		return r
	}
	r.sizeC, r.fid = s.sizeC, &c.fid
	r.latency = s.view.Finished.Sub(s.t0) + s.fetch
	fx.mu.Lock()
	fx.spilled += s.spill.Spilled
	fx.records += s.spill.Records
	fx.requests++
	if s.cached {
		fx.cachedN++
	}
	fx.mu.Unlock()
	return r
}

// waitDone polls a job view until it settles.
func (fx *serveFixture) waitDone(url string, v *server.JobView) error {
	for v.Status == server.StatusQueued || v.Status == server.StatusRunning {
		time.Sleep(pollInterval)
		if _, _, err := fx.call(http.MethodGet, url, nil, v); err != nil {
			return err
		}
	}
	if v.Status != server.StatusDone {
		return fmt.Errorf("job settled %s: %s", v.Status, v.Error)
	}
	if v.Finished == nil {
		return errors.New("done job has no Finished stamp")
	}
	return nil
}

// streamJob uploads one trace the way `siesta upload` does: open the
// session with the declared digest, PUT each rank's chunk stream in
// uploadChunk pieces round-robin across ranks, commit, then poll and fetch.
func (fx *serveFixture) streamJob(c *corpusEntry, req request) (*served, error) {
	base := fx.st.url
	s := &served{t0: time.Now()}
	open := server.TraceOpenRequest{
		NumRanks: len(c.streams), Seed: req.Seed,
		ContentSHA256: c.digest, SpillHighWater: spillHighWater,
	}
	body, _ := json.Marshal(&open)
	var opened server.TraceOpenResponse
	_, d, err := fx.call(http.MethodPost, base+"/v1/traces", body, &opened)
	s.upload += d
	if err != nil {
		return s, fmt.Errorf("open: %w", err)
	}
	err = roundRobin(c.streams, func(rk int, piece []byte) error {
		_, d, err := fx.call(http.MethodPut, fmt.Sprintf("%s/v1/traces/%s/ranks/%d", base, opened.ID, rk), piece, nil)
		s.upload += d
		s.appendDur += d
		s.appendB += len(piece)
		if err != nil {
			return fmt.Errorf("rank %d chunk: %w", rk, err)
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	var commit server.TraceCommitResponse
	commitStart, beforeCommit := time.Now(), s.upload
	_, d, err = fx.call(http.MethodPost, base+"/v1/traces/"+opened.ID+"/commit", nil, &commit)
	s.upload += d
	if err != nil {
		return s, fmt.Errorf("commit: %w", err)
	}
	s.admitted = beforeCommit + commit.Job.Created.Sub(commitStart)
	s.view, s.cached, s.cacheKey, s.spill = commit.Job, commit.Cached, commit.CacheKey, commit.Spill
	if err := fx.waitDone(base+"/v1/jobs/"+s.view.ID, &s.view); err != nil {
		return s, err
	}
	s.artifact, s.artGET, err = fx.call(http.MethodGet, base+commit.ArtifactURL, nil, nil)
	s.fetch += s.artGET
	if err != nil {
		return s, fmt.Errorf("artifact: %w", err)
	}
	return s, nil
}

// oneshotJob sends one trace_base64 request through the gateway, then
// polls and fetches the artifact and, for analyzed jobs, the analysis.
func (fx *serveFixture) oneshotJob(c *corpusEntry, req request) (*served, error) {
	base := fx.st.url
	s := &served{t0: time.Now()}
	body, _ := json.Marshal(&server.SynthesizeRequest{TraceBase64: c.b64, Seed: req.Seed, Analyze: req.Analyze})
	var sr server.SynthesizeResponse
	_, d, err := fx.call(http.MethodPost, base+"/v1/synthesize", body, &sr)
	s.upload += d
	if err != nil {
		return s, fmt.Errorf("synthesize: %w", err)
	}
	s.view, s.cached, s.cacheKey = sr.Job, sr.Cached, sr.CacheKey
	s.admitted = sr.Job.Created.Sub(s.t0)
	if err := fx.waitDone(base+"/v1/jobs/"+s.view.ID, &s.view); err != nil {
		return s, err
	}
	s.artifact, s.artGET, err = fx.call(http.MethodGet, base+sr.ArtifactURL, nil, nil)
	s.fetch += s.artGET
	if err != nil {
		return s, fmt.Errorf("artifact: %w", err)
	}
	if req.Analyze {
		s.analysis, d, err = fx.call(http.MethodGet, base+"/v1/jobs/"+s.view.ID+"/analysis", nil, nil)
		s.fetch += d
		if err != nil {
			return s, fmt.Errorf("analysis: %w", err)
		}
	}
	return s, nil
}

// checkServed is the per-job output check: the artifact, minus its key,
// is byte-identical to the batch reference (so streamed = one-shot for the
// same trace and seed), and an analysis is byte-identical to the
// reference statics report.
func (fx *serveFixture) checkServed(c *corpusEntry, req request, s *served) error {
	var err error
	if s.sizeC, err = checkArtifact(c.want, s.artifact); err != nil {
		return err
	}
	if req.Analyze && !bytes.Equal(s.analysis, c.analysis) {
		return errors.New("analysis differs from the reference statics report")
	}
	return nil
}

// ledgerServed fills the traced run's tally for one service job: the
// client-side HTTP time, the server's queue wait and service time from its
// own stamps, the gateway hop, and — for jobs the server synthesized —
// the layer calls the server made, re-timed here on the same input. It
// returns the shadow pipeline's error, which fails the job.
func (fx *serveFixture) ledgerServed(c *corpusEntry, req request, s *served, jobErr error, jt *jobTimer) error {
	t := jt.t
	t.add("server.requests", 1)
	if fx.oneshot {
		t.add("fleet.requests", 1)
	}
	var he *httpError
	if errors.As(jobErr, &he) {
		if he.status == http.StatusTooManyRequests {
			t.add("server.rejected", 1)
		}
		if fx.oneshot && he.status >= 500 {
			t.add("fleet.proxy_errors", 1)
		}
	}
	if jobErr != nil {
		return nil
	}
	created, finished := s.view.Created, *s.view.Finished
	started := finished
	if s.view.Started != nil {
		started = *s.view.Started
	}
	jt.span("server.upload", "blocking", s.t0, s.t0.Add(s.admitted))
	jt.span("server.queue", "server", created, started)
	jt.span("server.service", "server", started, finished)
	httpDur := s.upload + s.fetch
	t.ns("server.http_ns", httpDur)
	t.ns("server.append_ns", s.appendDur)
	t.add("server.append_bytes", float64(s.appendB))
	t.ns("server.queue_wait_ns", started.Sub(created))
	t.ns("server.service_ns", finished.Sub(started))
	// The blocking path runs through the server's stamps: the upload up to
	// admission (the commit or submit call's remainder overlaps the job),
	// the queue wait, the service's layer calls (re-timed below), and the
	// artifact fetch.
	t.ns("core.blocking_ns", s.admitted+started.Sub(created)+s.fetch)
	t.add("trace.events", float64(c.events))
	t.add("trace.raw_bytes", float64(c.rawBytes))
	if s.cached {
		t.add("server.cached", 1)
	}
	if !fx.oneshot {
		t.add("trace.records", float64(s.spill.Records))
		t.add("trace.spilled", float64(s.spill.Spilled))
		t.add("trace.spill_bytes", float64(s.spill.SpilledBytes))
	}
	jt.end(s.t0, finished.Add(s.fetch))

	if fx.oneshot {
		// The same artifact straight from the worker, by cache key.
		_, direct, err := fx.call(http.MethodGet, fx.st.workerURL+"/peer/v1/artifact/"+s.cacheKey, nil, nil)
		if err == nil {
			t.ns("fleet.hop_ns", s.artGET-direct)
			t.add("fleet.hops", 1)
		}
	}
	if s.cached {
		return nil // nothing was synthesized
	}
	if err := fx.shadow(c, req, jt); err != nil {
		return fmt.Errorf("shadow pipeline: %w", err)
	}
	return nil
}

// shadow re-runs, on the job's input, the layer calls the server made for
// it, timing each. Calls on the service's blocking path are "shadow" spans
// added to the blocking-path sum; codec costs the client pays before the
// first byte, or that sit inside the upload's HTTP time, are side spans.
func (fx *serveFixture) shadow(c *corpusEntry, req request, jt *jobTimer) error {
	t := jt.t
	var (
		prog *merge.Program
		tr   *trace.Trace
		err  error
	)
	if fx.oneshot {
		jt.side("trace.decode_ns", "trace.Decode", func() { tr, err = trace.Decode(c.encoded) })
		if err != nil {
			return err
		}
		jt.side("trace.encode_ns", "trace.Trace.Encode", func() { tr.Encode() })
		t.add("trace.encoded_bytes", float64(len(c.encoded)))
		sequiturSide(tr, jt, true)
		jt.shadow("merge.build_ns", "merge.Build", func() {
			prog, err = merge.Build(tr, merge.Options{Parallelism: jobParallelism})
		})
	} else {
		if tr, err = trace.Decode(c.encoded); err != nil {
			return err
		}
		var n int
		jt.side("trace.chunk_encode_ns", "trace.ChunkEncodeRank", func() {
			for _, rt := range tr.Ranks {
				n += len(trace.ChunkEncodeRank(rt))
			}
		})
		t.add("trace.chunk_bytes", float64(n))
		jt.side("trace.chunk_decode_ns", "trace.ChunkDec.Feed", func() {
			for _, stream := range c.streams {
				dec := trace.NewChunkDec()
				for off := 0; off < len(stream) && err == nil; off += uploadChunk {
					err = dec.Feed(stream[off:min(off+uploadChunk, len(stream))], func(trace.ChunkItem) error { return nil })
				}
			}
		})
		if err != nil {
			return err
		}
		sequiturSide(tr, jt, false)
		prog, err = fx.shadowIngest(c, jt)
	}
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	t.add("merge.input_raw_bytes", float64(c.rawBytes))
	t.add("merge.program_bytes", float64(len(prog.Encode())))
	var rep *check.Report
	jt.shadow("check.verify_ns", "check.Verify", func() { rep, err = check.Verify(prog, check.Options{ExactBytes: true}) })
	if err != nil {
		return err
	}
	if req.Analyze {
		jt.shadow("statics.analyze_ns", "statics.Analyze", func() {
			_, err = statics.Analyze(prog, nil, statics.Options{ExactBytes: true})
		})
		if err != nil {
			return err
		}
	}
	var bm *qp.Matrix
	jt.shadow("blocks.measure_b_ns", "blocks.MeasureB", func() { bm = blocks.MeasureB(platform.A, nil) })
	jt.shadow("blocks.search_ns", "blocks.CachedSearch", func() { err = searchClusters(fx.shadowMemo, bm, prog) })
	if err != nil {
		return err
	}
	t.add("blocks.searches", float64(len(prog.Clusters)))
	var gen *codegen.Generated
	var csrc string
	jt.shadow("codegen.generate_ns", "codegen.Generate", func() {
		gen, err = codegen.Generate(prog, codegen.Options{Platform: platform.A, BMatrix: bm, SearchMemo: fx.shadowMemo, Check: rep})
		if err == nil {
			csrc = gen.CSource()
		}
	})
	if err != nil {
		return err
	}
	var want cache.Artifact
	if json.Unmarshal(c.want, &want) != nil || want.CSource != csrc {
		return errors.New("shadow pipeline C source differs from the batch reference")
	}
	return nil
}

// shadowIngest replays the upload into a merge.Ingest the way the server
// does — same options, same chunking, same round-robin order — timing the
// feeds and the build.
func (fx *serveFixture) shadowIngest(c *corpusEntry, jt *jobTimer) (*merge.Program, error) {
	in, err := core.NewIngest(len(c.streams), core.Options{
		Parallelism: jobParallelism,
		Merge:       merge.Options{Parallelism: jobParallelism, Spill: trace.SpillConfig{HighWater: spillHighWater}},
	})
	if err != nil {
		return nil, err
	}
	defer in.Close()
	jt.side("merge.ingest_feed_ns", "merge.RankIngestor.Feed", func() {
		err = roundRobin(c.streams, func(rk int, piece []byte) error { return in.Rank(rk).Feed(piece) })
	})
	if err != nil {
		return nil, err
	}
	var prog *merge.Program
	jt.shadow("merge.ingest_build_ns", "merge.Ingest.Build", func() { prog, err = in.Build() })
	jt.t.add("merge.reinferred", float64(in.Reinferred()))
	jt.t.add("merge.ingest_ranks", float64(in.NumRanks()))
	return prog, err
}

// roundRobin hands each rank's stream to fn in uploadChunk pieces,
// cycling over the ranks — the upload order `siesta upload` uses.
func roundRobin(streams [][]byte, fn func(rank int, piece []byte) error) error {
	offs := make([]int, len(streams))
	for progress := true; progress; {
		progress = false
		for rk, stream := range streams {
			if offs[rk] >= len(stream) {
				continue
			}
			end := min(offs[rk]+uploadChunk, len(stream))
			if err := fn(rk, stream[offs[rk]:end]); err != nil {
				return err
			}
			offs[rk], progress = end, true
		}
	}
	return nil
}

// stack is the in-process service a serve workload runs against: one
// server (serve-stream), or a fleet gateway with one worker
// (serve-oneshot), each behind its own loopback HTTP listener.
type stack struct {
	url       string // where clients send requests
	workerURL string // serve-oneshot: the worker, for direct fetches

	srv    *server.Server
	worker *fleet.Worker
	https  []*http.Server
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

func listen(h http.Handler, st *stack) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// startStack brings the service up and returns once the first job is
// admissible: the server answers /readyz, or — behind the gateway — the
// worker has registered and the gateway routes to it.
func startStack(oneshot bool) (*stack, error) {
	st := &stack{}
	cfg := server.Config{Workers: serveSlots, MaxParallelism: jobParallelism, MaxJobs: maxJobRecords}
	var err error
	if !oneshot {
		if st.srv, err = server.New(cfg); err != nil {
			return nil, err
		}
		if st.url, err = listen(st.srv.Handler(), st); err != nil {
			st.stop()
			return nil, err
		}
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		st.cancel = cancel
		gw := fleet.NewGateway(fleet.GatewayConfig{RouteRefresh: routeRefresh})
		if st.url, err = listen(gw.Handler(), st); err != nil {
			st.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.stop()
			return nil, err
		}
		st.workerURL = "http://" + ln.Addr().String()
		st.worker, err = fleet.NewWorker(fleet.WorkerConfig{
			ID: "w1", AdvertiseURL: st.workerURL, RegistryURL: st.url, Server: cfg,
		})
		if err != nil {
			ln.Close()
			st.stop()
			return nil, err
		}
		hs := &http.Server{Handler: st.worker.Handler()}
		st.https = append(st.https, hs)
		go hs.Serve(ln)
		st.loops.Add(2)
		go func() { defer st.loops.Done(); gw.Run(ctx) }()
		go func() { defer st.loops.Done(); st.worker.Run(ctx) }()
	}
	if err := waitReady(st.url + "/readyz"); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// waitReady polls a readiness endpoint until it answers 200.
func waitReady(url string) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s", url)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the service: the worker leaves the fleet and drains its
// server, the background loops end, then the listeners close.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.worker != nil {
		errs = append(errs, st.worker.Close(ctx))
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
	}
	if st.cancel != nil {
		st.cancel()
	}
	st.loops.Wait()
	for _, hs := range st.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	return errors.Join(errs...)
}
