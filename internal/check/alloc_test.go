package check_test

import (
	"testing"

	"siesta/internal/apps"
	"siesta/internal/check"
)

// verifyAllocsCG64 is check.Verify's allocation count per call on the 64-rank
// CG program of TestVerifyAllocsCG64, measured when every rank's expansion
// still rebuilt its own rule-length memo (ExpandedLen) and diagnostics had a
// separate path finder.
const verifyAllocsCG64 = 680

// TestVerifyAllocsCG64 pins that Verify allocates no more than it did before
// the expansion moved onto one shared merge.Cursor.
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
		t.Errorf("check.Verify allocates %.0f times per call on CG/64, above the %d it took before", allocs, verifyAllocsCG64)
	}
}
