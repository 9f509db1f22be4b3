// Agreement gate: for every built-in application, the static analysis of the
// merged grammar must equal what an actual simulated run observes. Two runs
// share one virtual-noise seed: the first is traced into a merge.Program,
// the second is observed by an obs.Timeline. statics.Analyze sees only the
// grammar; the timeline sees only the run — every integer metric (message
// counts and bytes per rank pair, per-rank per-function call counts,
// compute-event counts) must match exactly, and the traced compute-seconds
// totals to float-summation tolerance. This is the "proxy ≡ trace" fidelity
// argument of the paper, checked by construction rather than by replay
// error.
package statics_test

import (
	"math"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/obs"
	"siesta/internal/statics"
	"siesta/internal/trace"
)

const (
	testNoise = 0.004
	testSeed  = 7
)

// buildApp resolves one app closure for the given rank count.
func buildApp(t *testing.T, spec *apps.Spec, ranks, iters int) func(*mpi.Rank) {
	t.Helper()
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// traceProgram runs the app under the trace recorder and merges the result.
func traceProgram(t *testing.T, spec *apps.Spec, ranks, iters int) *merge.Program {
	t.Helper()
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, NoiseSigma: testNoise, Seed: testSeed})
	if _, err := w.Run(buildApp(t, spec, ranks, iters)); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	p, err := merge.Build(rec.Trace("A", "openmpi"), merge.Options{})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return p
}

// observeRun runs the same app under an obs.Timeline with the same seed, so
// its virtual behavior matches the traced run's event-for-event.
func observeRun(t *testing.T, spec *apps.Spec, ranks, iters int) *obs.Timeline {
	t.Helper()
	tl := obs.New().NewTimeline("run", ranks)
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: tl, NoiseSigma: testNoise, Seed: testSeed})
	if _, err := w.Run(buildApp(t, spec, ranks, iters)); err != nil {
		t.Fatalf("observed run: %v", err)
	}
	return tl
}

// validRankCounts picks the app's smallest and largest supported rank counts
// in [4,16], so every app is checked at more than one scale where possible.
func validRankCounts(t *testing.T, spec *apps.Spec) []int {
	t.Helper()
	lo, hi := 0, 0
	for r := 4; r <= 16; r++ {
		if spec.ValidRanks(r) {
			if lo == 0 {
				lo = r
			}
			hi = r
		}
	}
	if lo == 0 {
		t.Fatalf("%s supports no rank count in [4,16]", spec.Name)
	}
	if hi == lo {
		return []int{lo}
	}
	return []int{lo, hi}
}

func assertAgreement(t *testing.T, rep *statics.Report, prog *merge.Program, tl *obs.Timeline) {
	t.Helper()
	if !rep.Complete {
		t.Fatalf("analysis incomplete: %d of %d events discharged", rep.ExecutedEvents, rep.Events)
	}
	if len(rep.Check.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", rep.Check)
	}

	// Message matrix: static pairs vs flow-edge-derived totals.
	obsPairs := tl.MessageTotals()
	if len(obsPairs) != len(rep.Pairs) {
		t.Fatalf("pair count: static %d, observed %d", len(rep.Pairs), len(obsPairs))
	}
	for i, pv := range rep.Pairs {
		ot := obsPairs[i]
		if pv.Src != ot.Src || pv.Dst != ot.Dst || pv.Messages != ot.Messages ||
			pv.Bytes != ot.Bytes || pv.Matched != ot.Matched {
			t.Errorf("pair %d->%d: static {msg %d bytes %d matched %d}, observed {msg %d bytes %d matched %d}",
				pv.Src, pv.Dst, pv.Messages, pv.Bytes, pv.Matched, ot.Messages, ot.Bytes, ot.Matched)
		}
	}

	// Per-rank per-function call counts: grammar fold vs timeline spans.
	var totalEvents int64
	counter := prog.NewTerminalCounter()
	counts := make([]int64, len(prog.Terminals))
	for rank := 0; rank < prog.NumRanks; rank++ {
		if err := counter.CountsDense(rank, counts); err != nil {
			t.Fatal(err)
		}
		static := map[string]int64{}
		for term := 0; term < len(prog.Terminals); term++ {
			if n := counts[term]; n > 0 {
				static[prog.Terminals[term].Func.String()] += n
			}
		}
		observed := tl.CallCounts(rank)
		if len(static) != len(observed) {
			t.Errorf("rank %d: %d static functions, %d observed", rank, len(static), len(observed))
		}
		var rankCalls int64
		for fn, n := range observed { //maporder:ok — error reporting only
			rankCalls += n
			if static[fn] != n {
				t.Errorf("rank %d %s: static %d calls, observed %d", rank, fn, static[fn], n)
			}
		}
		totalEvents += rankCalls
		if rep.Ranks[rank].Calls != rankCalls {
			t.Errorf("rank %d: static %d calls total, observed %d", rank, rep.Ranks[rank].Calls, rankCalls)
		}
	}
	if rep.Events != totalEvents {
		t.Errorf("events: static %d, observed %d", rep.Events, totalEvents)
	}

	// Compute: cluster occurrence counts must match what tracing clustered,
	// and the traced compute total must match the observed run's compute
	// busy-time to float-summation tolerance.
	for _, cc := range rep.Clusters {
		if cc.Events != int64(cc.N) {
			t.Errorf("cluster %d: fold counts %d events, tracer clustered %d", cc.Cluster, cc.Events, cc.N)
		}
	}
	var obsCompute float64
	for rank := 0; rank < prog.NumRanks; rank++ {
		_, comp := tl.BusyTotals(rank)
		obsCompute += float64(comp)
	}
	if !closeRel(rep.ComputeSeconds, obsCompute, 1e-9) {
		t.Errorf("compute seconds: static %.12e, observed %.12e", rep.ComputeSeconds, obsCompute)
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return den > 0 && math.Abs(a-b)/den <= tol
}

func TestBuiltinAppsAgree(t *testing.T) {
	for _, spec := range apps.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, ranks := range validRankCounts(t, spec) {
				prog := traceProgram(t, spec, ranks, 2)
				tl := observeRun(t, spec, ranks, 2)
				rep, err := statics.Analyze(prog, nil, statics.Options{ExactBytes: true})
				if err != nil {
					t.Fatalf("%d ranks: %v", ranks, err)
				}
				assertAgreement(t, rep, prog, tl)
			}
		})
	}
}
