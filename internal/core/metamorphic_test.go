// Metamorphic tests: relations that must hold between two synthesis runs
// whose inputs differ in a controlled way.
//
//   - Changing the noise/jitter seed is a different "cluster job" of the
//     same program: every artifact's *structure* (call sequences, message
//     edges, timeline event shapes) is invariant; only times move, and
//     only within the jitter envelope.
//   - Changing Parallelism is a pure throughput knob: artifacts AND the
//     recorded observability streams are byte-identical. This extends the
//     determinism suite to the span layer; CI runs it under -race.
package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/obs"
)

// shapeEvent is a timeline event with times stripped: what must survive a
// noise-seed change unchanged.
type shapeEvent struct {
	Name string
	Cat  string
	Kind obs.Kind
	Rank int
	Flow uint64
}

func timelineShape(tl *obs.Timeline) []shapeEvent {
	events := tl.Events()
	out := make([]shapeEvent, len(events))
	for i, ev := range events {
		out[i] = shapeEvent{Name: ev.Name, Cat: ev.Cat, Kind: ev.Kind, Rank: ev.Rank, Flow: ev.Flow}
	}
	return out
}

// synthesizeCG runs one observed CG synthesis at 8 ranks.
func synthesizeCG(t *testing.T, seed uint64, parallelism int) (*core.Result, *obs.Tracer) {
	t.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New()
	res, err := core.Synthesize(fn, core.Options{
		Ranks: 8, Seed: seed, Parallelism: parallelism, Tracer: tracer,
	})
	if err != nil {
		t.Fatalf("seed=%d parallelism=%d: %v", seed, parallelism, err)
	}
	return res, tracer
}

// TestMetamorphicNoiseSeed: two seeds are two jobs of the same program on
// the same cluster — identical structure, times within the jitter
// envelope.
func TestMetamorphicNoiseSeed(t *testing.T) {
	resA, trA := synthesizeCG(t, 1, 0)
	resB, trB := synthesizeCG(t, 2, 0)

	// Call structure is timing-independent.
	if a, b := resA.Trace.TotalEvents(), resB.Trace.TotalEvents(); a != b {
		t.Fatalf("trace event counts differ across seeds: %d vs %d", a, b)
	}
	for i := range resA.BaselineRun.Ranks {
		if a, b := resA.BaselineRun.Ranks[i].Calls, resB.BaselineRun.Ranks[i].Calls; a != b {
			t.Errorf("rank %d: call count %d vs %d across seeds", i, a, b)
		}
	}

	// Timeline shape — names, categories, ranks, message edges — is
	// invariant; only the recorded times may move.
	tlA, tlB := trA.Timelines()[0], trB.Timelines()[0]
	shapeA, shapeB := timelineShape(tlA), timelineShape(tlB)
	if len(shapeA) != len(shapeB) {
		t.Fatalf("timeline lengths differ across seeds: %d vs %d", len(shapeA), len(shapeB))
	}
	for i := range shapeA {
		if shapeA[i] != shapeB[i] {
			t.Fatalf("timeline event %d differs across seeds: %+v vs %+v", i, shapeA[i], shapeB[i])
		}
	}

	// Execution times move, but stay inside the jitter envelope (2%
	// per-rank run variation; 25% is far outside anything it produces).
	a, b := float64(resA.BaselineRun.ExecTime), float64(resB.BaselineRun.ExecTime)
	if rel := math.Abs(a-b) / a; rel > 0.25 {
		t.Errorf("exec time moved %.1f%% across seeds (%v vs %v) — beyond the jitter envelope",
			rel*100, resA.BaselineRun.ExecTime, resB.BaselineRun.ExecTime)
	}
	if a == b {
		t.Error("different seeds produced bit-identical exec times — jitter is not being applied")
	}
}

// TestMetamorphicParallelismObservability: the determinism suite already
// pins artifacts across Parallelism; this extends the guarantee to the
// observability layer — phase coverage and complete timeline event
// streams (times included: they are virtual) must match. Wall-clock span
// *order* is only pinned for the sequential pipeline: a parallel run
// overlaps baseline with trace and the searches with the check gate (a
// search span), so its ladder is compared as a set with that one span
// added, and the overlapped spans must say so.
func TestMetamorphicParallelismObservability(t *testing.T) {
	resA, trA := synthesizeCG(t, 1, 1)
	resB, trB := synthesizeCG(t, 1, 4)

	if !bytes.Equal(resA.Program.Encode(), resB.Program.Encode()) {
		t.Error("encoded program differs across Parallelism")
	}
	if resA.Generated.CSource() != resB.Generated.CSource() {
		t.Error("generated C differs across Parallelism")
	}

	namesA, namesB := phaseNames(trA.Phases()), phaseNames(trB.Phases())
	want := []string{"baseline", "trace", "merge", "check", "codegen"}
	if !reflect.DeepEqual(namesA, want) {
		t.Fatalf("serial phase ladder = %v, want %v", namesA, want)
	}
	setB := make(map[string]int)
	for _, n := range namesB {
		setB[n]++
	}
	for _, n := range append(want, "search") {
		if setB[n] != 1 {
			t.Fatalf("parallel run recorded phase %q %d times, want exactly once (ladder %v)",
				n, setB[n], namesB)
		}
	}
	if len(namesB) != len(want)+1 {
		t.Fatalf("parallel phase ladder has unexpected spans: %v", namesB)
	}
	for _, p := range trA.Phases() {
		if _, ok := attrMap(p.Attrs)["overlap"]; ok {
			t.Errorf("serial %s span carries an overlap attribute: %v", p.Name, p.Attrs)
		}
	}
	var tail []string
	for _, p := range trB.Phases() {
		switch p.Name {
		case "baseline", "trace", "search":
			if attrMap(p.Attrs)["overlap"] != true {
				t.Errorf("parallel %s span not tagged overlap: %v", p.Name, p.Attrs)
			}
		}
		if p.Name != "search" {
			tail = append(tail, p.Name)
		}
	}
	// The pure phases after the overlapped segment still end in pipeline
	// order.
	tail = tail[len(tail)-3:]
	if !reflect.DeepEqual(tail, []string{"merge", "check", "codegen"}) {
		t.Fatalf("parallel phase ladder tail = %v, want [merge check codegen]", tail)
	}

	tlsA, tlsB := trA.Timelines(), trB.Timelines()
	if len(tlsA) != len(tlsB) {
		t.Fatalf("timeline counts differ: %d vs %d", len(tlsA), len(tlsB))
	}
	for i := range tlsA {
		a, err := json.Marshal(tlsA[i].Events())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tlsB[i].Events())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("timeline %q event stream differs across Parallelism", tlsA[i].Name())
		}
	}
}
