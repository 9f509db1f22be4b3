package core

import (
	"fmt"

	"siesta/internal/merge"
)

// Streaming synthesis entry (DESIGN.md §15). The batch pipeline's front
// half — run the app, record, decode a whole trace — is replaced by a
// merge.Ingest session whose rank streams arrived over the wire; the back
// half (merge → static check → codegen → proxy) is the same code
// Synthesize runs, with the same options, so for any trace the streamed
// and batch paths synthesize byte-identical programs, C sources, and
// proxies. A scaled synthesis shrinks communication by the recorded call
// timings, which no stream carries; there the streamed path matches
// SynthesizeTrace over the decoded trace, which carries none either.
// core/streaming_diff_test.go holds that contract.

// NewIngest opens a streaming merge session sized and configured for one
// synthesis: the session inherits opts.Merge exactly as Synthesize would
// apply it (defaults included), which is what makes a later
// SynthesizeIngest equivalent to Synthesize over the equivalent trace.
func NewIngest(numRanks int, opts Options) (*merge.Ingest, error) {
	opts.Ranks = numRanks
	opts = opts.withDefaults()
	if numRanks <= 0 {
		return nil, fmt.Errorf("core: ingest needs a positive rank count, got %d", numRanks)
	}
	return merge.NewIngest(numRanks, opts.Platform.Name, opts.Impl.Name, opts.Merge)
}

// IngestSession is the streaming merge session SynthesizeIngest commits;
// *merge.Ingest implements it. Build consumes the session and may run at
// most once, so a caller that retries a commit wraps it to memoize Build.
type IngestSession interface {
	NumRanks() int
	Build() (*merge.Program, error)
	Close() error
}

// SynthesizeIngest commits a streaming ingest session: Build merges the
// session's rank streams and the batch pipeline's back half runs over the
// program, with exactly Synthesize's option handling. The session is
// consumed (its spill file is released) even on error or resume. The
// Result carries no Trace and no simulated runs: those belong to whoever
// recorded the streams. Like SynthesizeTrace it writes — and resumes
// from — one program-only merge checkpoint.
func SynthesizeIngest(in IngestSession, opts Options) (*Result, error) {
	defer in.Close()
	opts.Ranks = in.NumRanks()
	opts = opts.withDefaults()
	r := newRun(opts)
	defer r.end()
	if err := r.tail(opts.Resume, in.Build); err != nil {
		return nil, err
	}
	return r.res, nil
}
