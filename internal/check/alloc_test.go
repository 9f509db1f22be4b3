package check_test

import (
	"testing"

	"siesta/internal/apps"
	"siesta/internal/check"
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
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := traceAndMerge(t, fn, 64)
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

// TestVerifyBytesFlatInIters pins that the machine's memory follows what is
// in flight, not the event count: on CG/16, eight times the iterations may
// cost at most 1.2× the bytes Verify allocates. Released messages, receives,
// requests and slots are reused, and each rank walks a grammar cursor
// instead of a materialized expansion.
func TestVerifyBytesFlatInIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	verifyBytes := func(iters int) (int64, int) {
		fn, err := spec.Build(apps.Params{Ranks: 16, Iters: iters})
		if err != nil {
			t.Fatal(err)
		}
		p := traceAndMerge(t, fn, 16)
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
