package merge

import "siesta/internal/trace"

// RefBuild lends the frozen batch reference (reference_test.go) to the
// external test package (differential_test.go).
var RefBuild = refBuild

// BuildReinferred is Build that also reports how many ranks its private
// session re-inferred (Ingest.Reinferred).
func BuildReinferred(tr *trace.Trace, opts Options) (*Program, int, error) {
	in := batchIngest(tr, opts)
	p, err := in.Build()
	return p, in.Reinferred(), err
}

// BuildRankClasses is Build that also reports how many rank classes its
// private session inferred (one grammar each).
func BuildRankClasses(tr *trace.Trace, opts Options) (*Program, int, error) {
	in := batchIngest(tr, opts)
	p, err := in.Build()
	return p, in.classes, err
}

// BatchIngest lends batch Build's private session to the external tests.
var BatchIngest = batchIngest

// ClassCounts reports a built session's root classes and its Sequitur runs
// over leaf ids (one per leaf class).
func (in *Ingest) ClassCounts() (rootClasses, leafRuns int) {
	return in.classes, int(in.inferred.Load())
}
