package statics_test

import (
	"testing"

	"siesta/internal/apps"
	"siesta/internal/statics"
)

// TestAnalyzeBytesFlatInIters pins that an analysis's memory follows what
// is in flight, not the message count: on CG/16, eight times the
// iterations may cost at most 1.2× the bytes Analyze allocates. The check
// machine recycles its objects, and the collector keeps only a window of
// the messages still awaiting their receive.
func TestAnalyzeBytesFlatInIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	analyzeBytes := func(iters int) (int64, int64) {
		p := traceProgram(t, spec, 16, iters)
		var messages int64
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := statics.Analyze(p, nil, statics.Options{ExactBytes: true})
				if err != nil {
					b.Fatal(err)
				}
				messages = rep.TotalMessages
			}
		})
		return res.AllocedBytesPerOp(), messages
	}
	const k = 5
	small, smallMsgs := analyzeBytes(k)
	large, largeMsgs := analyzeBytes(8 * k)
	t.Logf("statics.Analyze on CG/16: %d B over %d messages at %d iterations, %d B over %d messages at %d",
		small, smallMsgs, k, large, largeMsgs, 8*k)
	if largeMsgs < 6*smallMsgs {
		t.Fatalf("8× the iterations sent %d messages, %d at 1×", largeMsgs, smallMsgs)
	}
	if float64(large) > 1.2*float64(small) {
		t.Errorf("statics.Analyze allocates %d B at %d iterations, above 1.2× the %d B at %d", large, 8*k, small, k)
	}
}
