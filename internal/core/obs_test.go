// Observability integration tests: a traced 16-rank CG synthesis must
// produce the full phase-span ladder, baseline + replay timelines whose
// per-rank busy totals agree with the runtime's own accounting to within
// a virtual nanosecond, and a Chrome trace_event export that validates
// against the schema with every message edge paired.
package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/obs"
)

// synthesizeTraced runs one observed CG synthesis (plus proxy replay) and
// returns the result and its tracer.
func synthesizeTraced(t testing.TB, ranks int, tracer *obs.Tracer) *core.Result {
	t.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism 1 pins the ordered five-phase ladder this test asserts;
	// the overlapped ladder (with its search span) is covered by the
	// metamorphic observability test.
	res, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 1, Tracer: tracer, Parallelism: 1})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return res
}

func TestTracedSynthesisCG16(t *testing.T) {
	tracer := obs.New()
	res := synthesizeTraced(t, 16, tracer)
	if _, err := res.RunProxy(nil, nil); err != nil {
		t.Fatalf("proxy replay: %v", err)
	}

	// Phase ladder: every pipeline stage, in order, with its attributes.
	phases := tracer.Phases()
	wantPhases := []string{"baseline", "trace", "merge", "check", "codegen"}
	if len(phases) != len(wantPhases) {
		t.Fatalf("got %d phase spans %v, want %v", len(phases), phaseNames(phases), wantPhases)
	}
	for i, want := range wantPhases {
		if phases[i].Name != want {
			t.Fatalf("phase ladder %v, want %v", phaseNames(phases), wantPhases)
		}
		attrs := attrMap(phases[i].Attrs)
		if attrs["ranks"] != int64(16) {
			t.Errorf("phase %s: ranks attr = %v, want 16", want, attrs["ranks"])
		}
		if _, ok := attrs["parallelism"]; !ok {
			t.Errorf("phase %s: missing parallelism attr", want)
		}
	}
	traceAttrs := attrMap(phases[1].Attrs)
	if traceAttrs["events"] != int64(res.Trace.TotalEvents()) {
		t.Errorf("trace phase events attr = %v, want %d", traceAttrs["events"], res.Trace.TotalEvents())
	}
	if traceAttrs["raw_bytes"] != int64(res.Trace.RawSize()) {
		t.Errorf("trace phase raw_bytes attr = %v, want %d", traceAttrs["raw_bytes"], res.Trace.RawSize())
	}
	if got := attrMap(phases[4].Attrs)["size_c"]; got != int64(res.Generated.SizeC) {
		t.Errorf("codegen phase size_c attr = %v, want %d", got, res.Generated.SizeC)
	}

	// Timelines: the baseline run and the proxy replay, 16 rank tracks each.
	tls := tracer.Timelines()
	if len(tls) != 2 || tls[0].Name() != "baseline" || tls[1].Name() != "replay" {
		t.Fatalf("timelines = %v, want [baseline replay]", timelineNames(tls))
	}
	for _, tl := range tls {
		if tl.NumRanks() != 16 {
			t.Fatalf("timeline %s has %d ranks, want 16", tl.Name(), tl.NumRanks())
		}
		if len(tl.Events()) == 0 {
			t.Fatalf("timeline %s recorded no events", tl.Name())
		}
	}

	// vtime agreement: the baseline timeline's per-rank comm/compute sums
	// must match the runtime's CommTime/ComputeTime within a nanosecond.
	const tol = 1e-9
	for i, rr := range res.BaselineRun.Ranks {
		comm, compute := tls[0].BusyTotals(i)
		if d := math.Abs(comm.Seconds() - rr.CommTime.Seconds()); d > tol {
			t.Errorf("rank %d: timeline comm %v vs CommTime %v (|Δ| = %.3g s)", i, comm, rr.CommTime, d)
		}
		if d := math.Abs(compute.Seconds() - rr.ComputeTime.Seconds()); d > tol {
			t.Errorf("rank %d: timeline compute %v vs ComputeTime %v (|Δ| = %.3g s)", i, compute, rr.ComputeTime, d)
		}
	}

	// The Chrome export must validate against the trace_event schema with
	// every flow edge paired and every track named.
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	validateChromeTrace(t, buf.Bytes(), len(tls))
}

func phaseNames(events []obs.Event) []string {
	var out []string
	for _, ev := range events {
		out = append(out, ev.Name)
	}
	return out
}

func timelineNames(tls []*obs.Timeline) []string {
	var out []string
	for _, tl := range tls {
		out = append(out, tl.Name())
	}
	return out
}

func attrMap(attrs []obs.Attr) map[string]any {
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// validateChromeTrace decodes a trace_event JSON document and asserts the
// schema subset the exporter promises: the envelope, required per-event
// keys, phase-specific fields (dur on "X", id on "s"/"f", bp on "f",
// args.name on "M"), finite timestamps, paired flow ids, and one named
// process per expected track.
func validateChromeTrace(t *testing.T, data []byte, wantTimelines int) {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	procNames := map[float64]bool{}
	flowStarts, flowEnds := map[string]int{}, map[string]int{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			args, _ := ev["args"].(map[string]any)
			if _, ok := args["name"].(string); !ok {
				t.Fatalf("metadata event %d has no args.name: %v", i, ev)
			}
			if ev["name"] == "process_name" {
				procNames[ev["pid"].(float64)] = true
			}
			continue
		case "X":
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
				t.Fatalf("complete event %d has bad dur: %v", i, ev)
			}
		case "s", "f":
			id, ok := ev["id"].(string)
			if !ok || id == "" {
				t.Fatalf("flow event %d has no string id: %v", i, ev)
			}
			if ev["ph"] == "s" {
				flowStarts[id]++
			} else {
				if ev["bp"] != "e" {
					t.Fatalf("flow-end %d missing bp=e binding: %v", i, ev)
				}
				flowEnds[id]++
			}
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant event %d missing thread scope: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected ph %v", i, ev["ph"])
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
			t.Fatalf("event %d has bad ts: %v", i, ev)
		}
	}
	// Track inventory: pid 0 (pipeline) plus one process per timeline.
	for pid := 0; pid <= wantTimelines; pid++ {
		if !procNames[float64(pid)] {
			t.Errorf("no process_name metadata for pid %d", pid)
		}
	}
	if len(flowStarts) == 0 {
		t.Fatal("a CG trace must contain message edges; found none")
	}
	for id, n := range flowStarts {
		if n != 1 || flowEnds[id] != 1 {
			t.Errorf("flow %s: %d starts, %d ends (want 1/1)", id, n, flowEnds[id])
		}
	}
	for id := range flowEnds {
		if flowStarts[id] != 1 {
			t.Errorf("flow %s has an end but no start", id)
		}
	}
}

// BenchmarkSpanOverheadDisabled measures a full synthesis with no tracer
// attached — the baseline every instrumented build is compared against.
// The acceptance bar for the observability layer is that this stays
// within noise (≤ 2%) of the pre-instrumentation pipeline; compare with
// BenchmarkSpanOverheadEnabled via benchstat to price the enabled path.
func BenchmarkSpanOverheadDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synthesizeTraced(b, 8, nil)
	}
}

// BenchmarkSpanOverheadEnabled is the same synthesis with phase spans and
// both runtime timelines recording.
func BenchmarkSpanOverheadEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synthesizeTraced(b, 8, obs.New())
	}
}
