// Package obs is Siesta's observability layer: a hierarchical span tracer
// for the synthesis pipeline and per-rank virtual-time timelines for the
// simulated MPI runtime. The paper's whole argument rests on measuring
// where a proxy spends its time (per-phase counters, per-rank communication
// timelines, Figs 5–9); this package makes those measurements first-class
// artifacts instead of log lines.
//
// Two time domains coexist in one trace:
//
//   - Pipeline phase spans (baseline, trace, merge, check, codegen) are
//     measured in wall-clock time since the tracer was created, because
//     they describe the synthesizer itself.
//   - Runtime timelines (package mpi's calls, computation regions, message
//     edges, collective barriers) are measured in virtual time, because
//     they describe the simulated cluster.
//
// Everything exports to Chrome trace_event JSON (openable in
// chrome://tracing or https://ui.perfetto.dev) and to a compact JSONL
// stream; see chrome.go and jsonl.go.
//
// The disabled path is free: every method is nil-receiver safe, so code
// threads a possibly-nil *Tracer and pays one nil check per span site.
// Call sites that build attributes guard on the tracer first so the
// disabled path allocates nothing (pinned by BenchmarkPhaseDisabled in
// bench_obs_test.go and BenchmarkSpanOverheadDisabled in internal/core).
package obs

import (
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are
// restricted to JSON-friendly scalars by the constructors.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute. The checkpoint/restart layer marks
// resumed pipeline spans with it so a trace viewer can tell a recovered
// run from a fresh one.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Kind classifies a timeline event.
type Kind uint8

// Event kinds. Spans carry Start+Dur; instants carry only Start; flow
// events are the two halves of a message edge (send side, receive side)
// joined by an id.
const (
	KindSpan Kind = iota
	KindInstant
	KindFlowStart
	KindFlowEnd
)

// Event is one export-ready record. Times are seconds within the owning
// track's domain (wall-clock seconds since the tracer epoch for pipeline
// events, virtual seconds for runtime events).
type Event struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Kind  Kind    `json:"kind"`
	Rank  int     `json:"rank"` // rank within the timeline; 0 for pipeline events
	Start float64 `json:"t0"`
	Dur   float64 `json:"dur,omitempty"`
	Flow  uint64  `json:"flow,omitempty"` // message-edge id, 0 = none
	Attrs []Attr  `json:"attrs,omitempty"`
}

// PhaseEvent is what a Tracer observer receives: one notification when a
// pipeline phase span starts (End=false, Dur meaningless) and one when it
// ends (End=true, Dur = wall-clock span length). Observers run on the
// goroutine that starts/ends the span and must be fast.
type PhaseEvent struct {
	Name  string
	Start time.Duration // offset from the tracer epoch
	Dur   time.Duration
	End   bool
	Attrs []Attr
}

// Tracer collects one synthesis run's observability data: pipeline phase
// spans plus any number of runtime timelines. A nil *Tracer is a valid,
// disabled tracer: every method no-ops.
//
// Distinct phase spans may be open concurrently (the overlapped baseline
// and traced runs each own one): a Span's fields are confined to the
// goroutine that starts, annotates, and ends it, while commits and observer
// lookups go through the tracer mutex. Timelines are written by their rank
// goroutines without locking and must only be exported after the run
// completes (mpi.World.Run's return is the happens-before edge).
type Tracer struct {
	epoch time.Time

	mu          sync.Mutex
	phases      []Event
	timelines   []*Timeline
	observer    func(PhaseEvent)
	noTimelines bool
}

// New creates an enabled tracer whose wall-clock epoch is now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// WithoutTimelines disables runtime timeline recording on the tracer while
// keeping phase spans: NewTimeline returns nil, so observed runs record
// nothing per rank. The synthesis service uses this for jobs that want
// phase metrics but did not ask for a trace. Returns the tracer for
// chaining; nil-safe.
func (t *Tracer) WithoutTimelines() *Tracer {
	if t != nil {
		t.mu.Lock()
		t.noTimelines = true
		t.mu.Unlock()
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetObserver registers a callback receiving every phase start and end.
// The synthesis service uses it for per-phase metrics and structured logs.
func (t *Tracer) SetObserver(fn func(PhaseEvent)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// Span is one in-flight pipeline phase. A nil *Span is valid and inert.
type Span struct {
	t     *Tracer
	name  string
	start time.Duration
	attrs []Attr
}

// Phase starts a pipeline phase span. Attributes describe the phase's
// inputs (rank count, parallelism); more can be attached with SetAttrs
// before End. Returns nil on a nil tracer — callers that build attribute
// lists should guard on the tracer first to keep the disabled path
// allocation-free.
func (t *Tracer) Phase(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Since(t.epoch), attrs: attrs}
	t.mu.Lock()
	obs := t.observer
	t.mu.Unlock()
	if obs != nil {
		obs(PhaseEvent{Name: name, Start: s.start, Attrs: attrs})
	}
	return s
}

// SetAttrs appends attributes to the span (typically outputs measured
// during the phase: byte sizes, event counts).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span and commits it to the tracer. End on a nil or
// already-ended span is a no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil
	end := time.Since(t.epoch)
	ev := Event{
		Name:  s.name,
		Cat:   "phase",
		Kind:  KindSpan,
		Start: s.start.Seconds(),
		Dur:   (end - s.start).Seconds(),
		Attrs: s.attrs,
	}
	t.mu.Lock()
	t.phases = append(t.phases, ev)
	obs := t.observer
	t.mu.Unlock()
	if obs != nil {
		obs(PhaseEvent{Name: s.name, Start: s.start, Dur: end - s.start, End: true, Attrs: s.attrs})
	}
}

// Phases returns the completed pipeline phase spans in end order.
func (t *Tracer) Phases() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.phases...)
}

// Timelines returns the registered runtime timelines in creation order.
func (t *Tracer) Timelines() []*Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Timeline(nil), t.timelines...)
}
