package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tally accumulates raw per-layer quantities (nanoseconds, bytes, counts)
// under dotted keys; the ledger turns them into per-unit metrics at the end.
type tally map[string]float64

func (t tally) add(key string, v float64) { t[key] += v }

func (t tally) ns(key string, d time.Duration) { t[key] += float64(d.Nanoseconds()) }

func (t tally) merge(o tally) {
	for k, v := range o { //maporder:ok — order-insensitive sums
		t[k] += v
	}
}

// ratio is num/den, or 0 when the layer did no work on this workload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetric is one ledger row: a per-layer metric, how it is computed
// from the tally, the base it is normalized to, and the tally key that is
// zero when the layer did no work on the workload.
type layerMetric struct {
	Name  string
	Unit  string
	value func(t tally) float64
	base  string
	work  string
}

// perJob is a mean per traced job of the tally key, divided by scale.
func perJob(name, unit, key string, scale float64) layerMetric {
	return layerMetric{name, unit, func(t tally) float64 { return ratio(t[key], t["jobs"]) / scale }, "jobs", key}
}

// per is num/den times scale.
func per(name, unit, num, den string, scale float64) layerMetric {
	return layerMetric{name, unit, func(t tally) float64 { return ratio(t[num], t[den]) * scale }, den, den}
}

// mbPerS is bytes/ns scaled to MB/s (10^6 bytes per second), based on
// the bytes processed.
func mbPerS(name, bytes, ns string) layerMetric {
	m := per(name, "MB/s", bytes, ns, 1e3)
	m.base = bytes
	return m
}

// layerMetrics is the per-layer ledger, in layer order. Every workload
// prints every row; a row whose layer does no work on the workload reads 0
// and is marked n/a.
var layerMetrics = []layerMetric{
	perJob("mpi.run_ms", "ms", "mpi.run_ns", 1e6),
	per("mpi.ns_per_call", "ns/call", "mpi.run_ns", "mpi.calls", 1),
	per("mpi.allocs_per_call", "allocs/call", "mpi.allocs", "mpi.calls", 1),
	{"trace.record_ns_per_event", "ns/event", func(t tally) float64 {
		return ratio(t["trace.traced_run_ns"]-t["mpi.run_ns"], t["trace.recorded_events"])
	}, "trace.recorded_events", "trace.recorded_events"},
	perJob("trace.events", "events", "trace.events", 1),
	perJob("trace.raw_bytes", "B", "trace.raw_bytes", 1),
	mbPerS("trace.encode_mb_s", "trace.encoded_bytes", "trace.encode_ns"),
	mbPerS("trace.decode_mb_s", "trace.encoded_bytes", "trace.decode_ns"),
	mbPerS("trace.chunk_encode_mb_s", "trace.chunk_bytes", "trace.chunk_encode_ns"),
	mbPerS("trace.chunk_decode_mb_s", "trace.chunk_bytes", "trace.chunk_decode_ns"),
	per("trace.spilled_frac", "ratio", "trace.spilled", "trace.records", 1),
	perJob("trace.spill_bytes", "B", "trace.spill_bytes", 1),
	per("sequitur.ns_per_symbol", "ns/symbol", "sequitur.ns", "sequitur.symbols", 1),
	perJob("sequitur.rules", "rules", "sequitur.rules", 1),
	perJob("merge.globalize_ms", "ms", "merge.globalize_ns", 1e6),
	perJob("merge.build_ms", "ms", "merge.build_ns", 1e6),
	perJob("merge.ingest_feed_ms", "ms", "merge.ingest_feed_ns", 1e6),
	perJob("merge.ingest_build_ms", "ms", "merge.ingest_build_ns", 1e6),
	per("merge.reinfer_frac", "ratio", "merge.reinferred", "merge.ingest_ranks", 1),
	per("merge.compression_x", "x", "merge.input_raw_bytes", "merge.program_bytes", 1),
	perJob("check.verify_ms", "ms", "check.verify_ns", 1e6),
	perJob("statics.analyze_ms", "ms", "statics.analyze_ns", 1e6),
	perJob("blocks.measure_b_ms", "ms", "blocks.measure_b_ns", 1e6),
	perJob("blocks.search_ms", "ms", "blocks.search_ns", 1e6),
	perJob("blocks.searches", "count", "blocks.searches", 1),
	{"blocks.memo_hit_frac", "ratio", func(t tally) float64 {
		return ratio(t["blocks.memo_hits"], t["blocks.memo_hits"]+t["blocks.memo_misses"])
	}, "blocks.memo_lookups", "blocks.searches"},
	perJob("codegen.generate_ms", "ms", "codegen.generate_ns", 1e6),
	perJob("proxy.replay_ms", "ms", "proxy.replay_ns", 1e6),
	per("proxy.ns_per_call", "ns/call", "proxy.replay_ns", "proxy.calls", 1),
	perJob("server.queue_wait_ms", "ms", "server.queue_wait_ns", 1e6),
	perJob("server.service_ms", "ms", "server.service_ns", 1e6),
	perJob("server.http_ms", "ms", "server.http_ns", 1e6),
	per("server.append_ms_per_mb", "ms/MB", "server.append_ns", "server.append_bytes", 1),
	per("server.cache_hit_frac", "ratio", "server.cached", "server.requests", 1),
	per("server.rejected_frac", "ratio", "server.rejected", "server.requests", 1),
	per("fleet.gateway_hop_ms", "ms", "fleet.hop_ns", "fleet.hops", 1e-6),
	{"fleet.proxy_errors", "count", func(t tally) float64 { return t["fleet.proxy_errors"] }, "fleet.requests", "fleet.requests"},
	perJob("core.overlap_ms", "ms", "core.overlap_ns", 1e6),
	{"core.residue_ms", "ms", func(t tally) float64 {
		return ratio(t["core.wall_ns"]-t["core.blocking_ns"], t["jobs"]) / 1e6
	}, "jobs", "jobs"},
}

// baseNote renders the work a row is normalized to.
func baseNote(t tally, base string) string {
	switch base {
	case "jobs":
		return fmt.Sprintf("per job, %d jobs", int(t["jobs"]))
	case "blocks.memo_lookups":
		return fmt.Sprintf("over %d memo lookups", int(t["blocks.memo_hits"]+t["blocks.memo_misses"]))
	case "trace.encoded_bytes", "trace.chunk_bytes", "server.append_bytes":
		return fmt.Sprintf("over %.2f MB", t[base]/1e6)
	default:
		return fmt.Sprintf("over %d %s", int(t[base]), base)
	}
}

// printLedger writes one row per layer metric with its base, plus the
// blocking-path split behind core.residue_ms.
func printLedger(w io.Writer, workload string, t tally) {
	fmt.Fprintf(w, "per-layer ledger (%s, traced run):\n", workload)
	for _, m := range layerMetrics {
		note := baseNote(t, m.base)
		if t[m.work] == 0 {
			note = "n/a: the layer does no work on this workload"
		}
		fmt.Fprintf(w, "  %-27s %14.4f %-11s %s\n", m.Name, m.value(t), m.Unit, note)
	}
	fmt.Fprintf(w, "  residue = job wall %.3f ms − blocking-path layers %.3f ms (per job)\n",
		ratio(t["core.wall_ns"], t["jobs"])/1e6, ratio(t["core.blocking_ns"], t["jobs"])/1e6)
}

// layerValues returns the per-layer metrics for the result line.
func layerValues(t tally) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.Name] = metric{Value: m.value(t), Unit: m.Unit}
	}
	return out
}

// span is one timed call from the benchmark's own code: name, start, end
// (seconds since the recorder's epoch), parent span and the job it served.
// Kind says how the span enters the ledger: "job" is a job's wall time;
// "blocking" a layer call on its blocking path; "leg" one of the
// overlapped runs inside synth-apps' blocking core.overlap span; "server"
// the queue and service intervals from the server's stamps; "shadow" a
// layer call the server made, re-run and timed by the client after the
// job, standing in for its share of the service time; "side" a
// measurement outside the blocking path.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spanRecorder keeps spans in memory; they are written out when the run ends.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// open reserves a span id; close fills in its times.
func (r *spanRecorder) open(job string, parent int, name, kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Kind: kind})
	return len(r.spans)
}

func (r *spanRecorder) close(id int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.Start, sp.End = start.Sub(r.epoch).Seconds(), end.Sub(r.epoch).Seconds()
}

// write stores the spans as JSON at path, creating its directory.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// jobTimer times the layer calls of one traced job: each call becomes a
// span under the job's span and its duration lands in the job's tally.
type jobTimer struct {
	rec *spanRecorder
	job string
	id  int // the job span
	t   tally
}

func newJobTimer(rec *spanRecorder, job string) *jobTimer {
	return &jobTimer{rec: rec, job: job, id: rec.open(job, 0, "job", "job"), t: tally{}}
}

func (j *jobTimer) call(key, name, kind string, fn func()) time.Duration {
	id := j.rec.open(j.job, j.id, name, kind)
	s := time.Now()
	fn()
	e := time.Now()
	j.rec.close(id, s, e)
	d := e.Sub(s)
	if key != "" {
		j.t.ns(key, d)
	}
	return d
}

// blocking times fn as a layer call on the job's blocking path: its
// duration is added both to key and to the blocking-path sum behind
// core.residue_ms.
func (j *jobTimer) blocking(key, name string, fn func()) time.Duration {
	d := j.call(key, name, "blocking", fn)
	j.t.ns("core.blocking_ns", d)
	return d
}

// shadow times fn as a service layer call re-run by the client: it is
// counted on the blocking path although it runs after the job.
func (j *jobTimer) shadow(key, name string, fn func()) {
	d := j.call(key, name, "shadow", fn)
	j.t.ns("core.blocking_ns", d)
}

// side times fn as a measurement off the blocking path: made after the
// job's wall time ended, or a part of a blocking call timed on its own.
func (j *jobTimer) side(key, name string, fn func()) time.Duration {
	return j.call(key, name, "side", fn)
}

// span records an interval measured by other means (server time stamps,
// overlapped legs) under the job.
func (j *jobTimer) span(name, kind string, start, end time.Time) {
	j.rec.close(j.rec.open(j.job, j.id, name, kind), start, end)
}

// end closes the job span over its wall time, the interval its blocking
// path covers.
func (j *jobTimer) end(wallStart, wallEnd time.Time) {
	j.rec.close(j.id, wallStart, wallEnd)
	j.t.ns("core.wall_ns", wallEnd.Sub(wallStart))
	j.t.add("jobs", 1)
}

// printCrossCheck prints the phase spans core.Synthesize's own tracer
// reported for the same jobs (synth-apps), next to the benchmark's timings
// of the matching calls.
func printCrossCheck(w io.Writer, t tally) {
	if t["xcheck.merge_ns"] == 0 {
		return
	}
	ms := func(key string) float64 { return ratio(t[key], t["jobs"]) / 1e6 }
	fmt.Fprintln(w, "cross-check against core.Options.Tracer phase spans (ms per job; tracer | benchmark):")
	fmt.Fprintf(w, "  baseline/trace/warmup  %8.3f %8.3f %8.3f | overlap segment %8.3f\n",
		ms("xcheck.baseline_ns"), ms("xcheck.trace_ns"), ms("xcheck.warmup_ns"), ms("core.overlap_ns"))
	fmt.Fprintf(w, "  merge                  %8.3f | merge.Build %8.3f\n", ms("xcheck.merge_ns"), ms("merge.build_ns"))
	fmt.Fprintf(w, "  check                  %8.3f | check.Verify %8.3f\n", ms("xcheck.check_ns"), ms("check.verify_ns"))
	fmt.Fprintf(w, "  codegen                %8.3f | CachedSearch + Generate %8.3f\n",
		ms("xcheck.codegen_ns"), ms("blocks.search_ns")+ms("codegen.generate_ns"))
}
