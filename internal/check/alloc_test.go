package check_test

import (
	"testing"

	"siesta/internal/apps"
	"siesta/internal/check"
	"siesta/internal/merge"
)

// verifyAllocsCG64 bounds check.Verify's allocation count per call on the
// 64-rank CG program of TestVerifyAllocsCG64. It measured 557 while every
// rank's expansion was materialized (the ceiling was then 680) and 503 once
// each rank walked its own cursor clone and released objects were reused.
const verifyAllocsCG64 = 520

// TestVerifyAllocsCG64 pins that Verify's allocation count stays at what
// per-rank cursors and recycled machine objects brought it to.
func TestVerifyAllocsCG64(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	p := cgProgram(t, 64, 0)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := check.Verify(p, check.Options{ExactBytes: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("check.Verify on CG/64: %.0f allocs per call", allocs)
	if allocs > verifyAllocsCG64 {
		t.Errorf("check.Verify allocates %.0f times per call on CG/64, above the ceiling of %d", allocs, verifyAllocsCG64)
	}
}

// cgProgram traces and merges CG on the given ranks and iterations.
func cgProgram(t *testing.T, ranks, iters int) *merge.Program {
	t.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	return traceAndMerge(t, fn, ranks)
}

// TestVerifyAllocsFlatInIters pins that Verify's allocation count does not
// grow with the iteration count: on CG/16, eight times the iterations may
// not add an allocation. A collective step that gives up capacity of a
// communicator's slot window when it closes a slot costs one allocation
// per step.
func TestVerifyAllocsFlatInIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	verifyAllocs := func(iters int) float64 {
		p := cgProgram(t, 16, iters)
		return testing.AllocsPerRun(3, func() {
			if _, err := check.Verify(p, check.Options{ExactBytes: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 5
	small, large := verifyAllocs(k), verifyAllocs(8*k)
	t.Logf("check.Verify on CG/16: %.0f allocs at %d iterations, %.0f at %d", small, k, large, 8*k)
	if large > small {
		t.Errorf("check.Verify allocates %.0f times at %d iterations, more than the %.0f at %d", large, 8*k, small, k)
	}
}

// TestVerifyBytesFlatInIters pins that the machine's memory follows what is
// in flight, not the event count: on CG/16, eight times the iterations may
// cost at most 1.2× the bytes Verify allocates. Released messages, receives,
// requests and slots are reused, and each rank walks a grammar cursor
// instead of a materialized expansion.
func TestVerifyBytesFlatInIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	verifyBytes := func(iters int) (int64, int) {
		p := cgProgram(t, 16, iters)
		var events int
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := check.Verify(p, check.Options{ExactBytes: true})
				if err != nil {
					b.Fatal(err)
				}
				events = rep.Events
			}
		})
		return res.AllocedBytesPerOp(), events
	}
	const k = 5
	small, smallEvents := verifyBytes(k)
	large, largeEvents := verifyBytes(8 * k)
	t.Logf("check.Verify on CG/16: %d B over %d events at %d iterations, %d B over %d events at %d",
		small, smallEvents, k, large, largeEvents, 8*k)
	if largeEvents < 6*smallEvents {
		t.Fatalf("8× the iterations expanded to %d events, %d at 1×", largeEvents, smallEvents)
	}
	if float64(large) > 1.2*float64(small) {
		t.Errorf("check.Verify allocates %d B at %d iterations, above 1.2× the %d B at %d", large, 8*k, small, k)
	}
}
